#include "pmtable/l0_table.h"

#include <vector>

#include "util/bloom.h"

namespace pmblade {

bool L0Table::MayContain(const LookupKey& lkey) const {
  if (filter_.empty() || filter_policy_ == nullptr) return true;
  return filter_policy_->KeyMayMatch(lkey.user_key(), Slice(filter_));
}

void L0Table::InstallFilter(const BloomFilterPolicy* policy,
                            std::string filter) {
  filter_policy_ = policy;
  filter_ = std::move(filter);
}

void L0Table::BuildFilter(const BloomFilterPolicy* policy) {
  if (policy == nullptr) return;
  // Collect distinct user keys (versions of one key are adjacent in
  // internal order, so comparing against the last collected key dedupes).
  std::vector<std::string> keys;
  std::unique_ptr<Iterator> it(NewIterator());
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    Slice user = ExtractUserKey(it->key());
    if (keys.empty() || user.compare(Slice(keys.back())) != 0) {
      keys.emplace_back(user.data(), user.size());
    }
  }
  if (keys.empty() || !it->status().ok()) return;
  std::vector<Slice> slices;
  slices.reserve(keys.size());
  for (const auto& key : keys) slices.emplace_back(key);
  std::string filter;
  policy->CreateFilter(slices, &filter);
  InstallFilter(policy, std::move(filter));
}

Status L0Table::Get(const LookupKey& lkey, std::string* value, bool* found,
                    Status* result_status) const {
  *found = false;
  std::unique_ptr<Iterator> it(NewIterator());
  it->Seek(lkey.internal_key());
  if (!it->Valid()) return it->status();

  ParsedInternalKey parsed;
  if (!ParseInternalKey(it->key(), &parsed)) {
    return Status::Corruption("l0 table: malformed internal key");
  }
  if (parsed.user_key != lkey.user_key()) {
    return it->status();  // different user key: not present here
  }
  *found = true;
  if (parsed.type == kTypeDeletion) {
    *result_status = Status::NotFound();
  } else {
    value->assign(it->value().data(), it->value().size());
    *result_status = Status::OK();
  }
  return it->status();
}

Status L0TableGet(const L0Table& table, const InternalKeyComparator& icmp,
                  const LookupKey& lkey, std::string* value, bool* found,
                  Status* result_status, ReadProbeStats* probe) {
  *found = false;
  // Fast range rejection on the cached boundaries.
  const Comparator* ucmp = icmp.user_comparator();
  if (table.num_entries() == 0) return Status::OK();
  if (ucmp->Compare(lkey.user_key(), ExtractUserKey(table.smallest())) < 0 ||
      ucmp->Compare(lkey.user_key(), ExtractUserKey(table.largest())) > 0) {
    return Status::OK();
  }
  if (probe != nullptr) ++probe->tables_probed;

  // Bloom rejection before any PM scan or SSD block read.
  const bool filtered = table.HasFilter();
  if (filtered) {
    if (probe != nullptr) ++probe->bloom_checks;
    if (!table.MayContain(lkey)) {
      if (probe != nullptr) ++probe->bloom_negatives;
      return Status::OK();
    }
  }

  Status s = table.Get(lkey, value, found, result_status);
  if (!*found && filtered && probe != nullptr) {
    ++probe->bloom_false_positives;
  }
  return s;
}

}  // namespace pmblade
