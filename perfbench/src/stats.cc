#include "stats.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void JsonObject::Add(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) value = 0.0;
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  fields_.emplace_back(key, buf);
}

void JsonObject::AddInt(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonObject::AddString(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

void JsonObject::AddRaw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(fields_[i].first) + "\":" + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
