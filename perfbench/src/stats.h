// JSON rendering of the run summary.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Ordered (name -> number) map rendered as a JSON object.
class JsonObject {
 public:
  void Add(const std::string& key, double value);
  void AddInt(const std::string& key, uint64_t value);
  void AddString(const std::string& key, const std::string& value);
  void AddRaw(const std::string& key, const std::string& json);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
