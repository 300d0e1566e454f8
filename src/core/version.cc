#include "core/version.h"

#include "compaction/merging_iterator.h"
#include "memtable/skiplist_memtable.h"

namespace pmblade {

namespace {

class RunIterator final : public Iterator {
 public:
  RunIterator(const InternalKeyComparator* icmp, std::vector<L0TableRef> run)
      : icmp_(icmp), run_(std::move(run)) {}

  bool Valid() const override {
    return table_iter_ != nullptr && table_iter_->Valid();
  }

  void SeekToFirst() override {
    index_ = 0;
    InitTableIter();
    if (table_iter_ != nullptr) table_iter_->SeekToFirst();
    SkipEmptyForward();
  }

  void SeekToLast() override {
    index_ = run_.empty() ? 0 : run_.size() - 1;
    InitTableIter();
    if (table_iter_ != nullptr) table_iter_->SeekToLast();
    SkipEmptyBackward();
  }

  void Seek(const Slice& target) override {
    // First table whose largest >= target.
    size_t lo = 0, hi = run_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (icmp_->Compare(run_[mid]->largest(), target) < 0) lo = mid + 1;
      else hi = mid;
    }
    index_ = lo;
    InitTableIter();
    if (table_iter_ != nullptr) table_iter_->Seek(target);
    SkipEmptyForward();
  }

  void Next() override {
    table_iter_->Next();
    SkipEmptyForward();
  }

  void Prev() override {
    table_iter_->Prev();
    SkipEmptyBackward();
  }

  Slice key() const override { return table_iter_->key(); }
  Slice value() const override { return table_iter_->value(); }
  Status status() const override {
    if (table_iter_ != nullptr) return table_iter_->status();
    return status_;
  }

 private:
  void InitTableIter() {
    if (index_ < run_.size()) {
      table_iter_.reset(run_[index_]->NewIterator());
    } else {
      table_iter_.reset();
    }
  }

  void SkipEmptyForward() {
    while (table_iter_ != nullptr && !table_iter_->Valid()) {
      if (!table_iter_->status().ok()) {
        status_ = table_iter_->status();
        table_iter_.reset();
        return;
      }
      ++index_;
      InitTableIter();
      if (table_iter_ != nullptr) table_iter_->SeekToFirst();
    }
  }

  void SkipEmptyBackward() {
    while (table_iter_ != nullptr && !table_iter_->Valid()) {
      if (!table_iter_->status().ok()) {
        status_ = table_iter_->status();
        table_iter_.reset();
        return;
      }
      if (index_ == 0) {
        table_iter_.reset();
        return;
      }
      --index_;
      InitTableIter();
      if (table_iter_ != nullptr) table_iter_->SeekToLast();
    }
  }

  const InternalKeyComparator* icmp_;
  std::vector<L0TableRef> run_;
  size_t index_ = 0;
  std::unique_ptr<Iterator> table_iter_;
  Status status_;
};

}  // namespace

namespace {

/// Concatenates the merged views of range-disjoint partitions, opening a
/// partition's tables only while the cursor is inside it.
class PartitionConcatIterator final : public Iterator {
 public:
  PartitionConcatIterator(
      const InternalKeyComparator* icmp,
      std::vector<std::shared_ptr<const PartitionSnapshot>> parts)
      : icmp_(icmp), parts_(std::move(parts)) {}

  bool Valid() const override {
    return current_ != nullptr && current_->Valid();
  }
  Slice key() const override { return current_->key(); }
  Slice value() const override { return current_->value(); }
  Status status() const override {
    if (current_ != nullptr && !current_->status().ok()) {
      return current_->status();
    }
    return status_;
  }

  void SeekToFirst() override {
    index_ = 0;
    OpenCurrent();
    if (current_ != nullptr) current_->SeekToFirst();
    SkipEmptyForward();
  }

  void SeekToLast() override {
    index_ = parts_.empty() ? 0 : parts_.size() - 1;
    OpenCurrent();
    if (current_ != nullptr) current_->SeekToLast();
    SkipEmptyBackward();
  }

  void Seek(const Slice& target) override {
    // Partition containing (or after) the target's user key.
    Slice user = ExtractUserKey(target);
    size_t lo = 0, hi = parts_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      const std::string& end = parts_[mid]->end_key;
      if (!end.empty() && user.compare(Slice(end)) >= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    index_ = lo;
    OpenCurrent();
    if (current_ != nullptr) current_->Seek(target);
    SkipEmptyForward();
  }

  void Next() override {
    current_->Next();
    SkipEmptyForward();
  }

  void Prev() override {
    current_->Prev();
    SkipEmptyBackward();
  }

 private:
  void OpenCurrent() {
    if (index_ >= parts_.size()) {
      current_.reset();
      return;
    }
    const PartitionSnapshot& part = *parts_[index_];
    std::vector<Iterator*> children;
    children.reserve(part.unsorted.size() + part.ssd_runs.size() + 1);
    for (const auto& table : part.unsorted) {
      children.push_back(table->NewIterator());
    }
    if (!part.sorted_run.empty()) {
      children.push_back(NewRunIterator(icmp_, part.sorted_run));
    }
    for (const auto& run : part.ssd_runs) {
      if (!run.tables.empty()) {
        children.push_back(NewRunIterator(icmp_, run.tables));
      }
    }
    if (children.empty()) {
      current_.reset(NewEmptyIterator());
    } else {
      current_.reset(NewMergingIterator(icmp_, std::move(children)));
    }
  }

  void SkipEmptyForward() {
    while (current_ != nullptr && !current_->Valid()) {
      if (!current_->status().ok()) {
        status_ = current_->status();
        current_.reset();
        return;
      }
      if (index_ + 1 >= parts_.size()) {
        current_.reset();
        return;
      }
      ++index_;
      OpenCurrent();
      if (current_ != nullptr) current_->SeekToFirst();
    }
  }

  void SkipEmptyBackward() {
    while (current_ != nullptr && !current_->Valid()) {
      if (!current_->status().ok()) {
        status_ = current_->status();
        current_.reset();
        return;
      }
      if (index_ == 0) {
        current_.reset();
        return;
      }
      --index_;
      OpenCurrent();
      if (current_ != nullptr) current_->SeekToLast();
    }
  }

  const InternalKeyComparator* icmp_;
  std::vector<std::shared_ptr<const PartitionSnapshot>> parts_;
  size_t index_ = 0;
  std::unique_ptr<Iterator> current_;
  Status status_;
};

}  // namespace

std::shared_ptr<MemTable> SuperVersion::NewMemTable(
    const InternalKeyComparator& icmp) {
  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  return std::shared_ptr<MemTable>(mem, [](MemTable* m) { m->Unref(); });
}

Iterator* NewPartitionConcatIterator(
    const InternalKeyComparator* icmp,
    std::vector<std::shared_ptr<const PartitionSnapshot>> parts) {
  return new PartitionConcatIterator(icmp, std::move(parts));
}

Iterator* NewRunIterator(const InternalKeyComparator* icmp,
                         std::vector<L0TableRef> run) {
  if (run.empty()) return NewEmptyIterator();
  if (run.size() == 1) return run[0]->NewIterator();
  return new RunIterator(icmp, std::move(run));
}

Status RunGet(const std::vector<L0TableRef>& run,
              const InternalKeyComparator& icmp, const LookupKey& lkey,
              std::string* value, bool* found, Status* result_status,
              ReadProbeStats* probe) {
  *found = false;
  if (run.empty()) return Status::OK();
  // First table whose largest user key >= probe.
  const Comparator* ucmp = icmp.user_comparator();
  size_t lo = 0, hi = run.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (ucmp->Compare(ExtractUserKey(run[mid]->largest()), lkey.user_key()) <
        0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == run.size()) return Status::OK();
  Status s =
      L0TableGet(*run[lo], icmp, lkey, value, found, result_status, probe);
  // Output tables are cut by size, not at user-key boundaries, so under a
  // live snapshot one key's older versions may continue in the next tables.
  while (s.ok() && !*found && lo + 1 < run.size() &&
         ucmp->Compare(ExtractUserKey(run[lo + 1]->smallest()),
                       lkey.user_key()) == 0) {
    ++lo;
    s = L0TableGet(*run[lo], icmp, lkey, value, found, result_status, probe);
  }
  return s;
}

}  // namespace pmblade
