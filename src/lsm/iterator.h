// Iterator: the abstract cursor shared by memtables, SST blocks, merged
// views and the public DB scan API (paper §V-F builds its hybrid range query
// from two of these).
#pragma once

#include <memory>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace kvaccel::lsm {

class Iterator {
 public:
  Iterator() = default;
  virtual ~Iterator() = default;
  Iterator(const Iterator&) = delete;
  Iterator& operator=(const Iterator&) = delete;

  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  virtual void Seek(const Slice& target) = 0;
  virtual void Next() = 0;
  // Key/value of the current position; only valid while Valid().
  virtual Slice key() const = 0;
  virtual Slice value() const = 0;
  virtual Status status() const = 0;
};

// K-way forward merge over child iterators, smallest key first (per `cmp`).
// Ties are won by the earliest child, which callers exploit by ordering
// children newest-first.
//
// The valid children sit in a binary min-heap ordered on (key, child index),
// each node caching its child's current key, so Next() advances and re-sifts
// only the child it consumed: O(log k) per entry instead of O(k). Seek and
// SeekToFirst still position every child eagerly.
template <typename Comparator>
class MergingIterator : public Iterator {
 public:
  MergingIterator(Comparator cmp,
                  std::vector<std::unique_ptr<Iterator>> children)
      : cmp_(cmp), children_(std::move(children)) {
    heap_.reserve(children_.size());
  }

  bool Valid() const override { return !heap_.empty(); }

  void SeekToFirst() override {
    for (auto& c : children_) c->SeekToFirst();
    BuildHeap();
  }

  void Seek(const Slice& target) override {
    for (auto& c : children_) c->Seek(target);
    BuildHeap();
  }

  void Next() override {
    Node& top = heap_.front();
    top.it->Next();
    if (top.it->Valid()) {
      top.key = top.it->key();
    } else {
      top = heap_.back();
      heap_.pop_back();
    }
    if (!heap_.empty()) SiftDown(0);
  }

  Slice key() const override { return heap_.front().key; }
  Slice value() const override { return heap_.front().it->value(); }

  Status status() const override {
    for (const auto& c : children_) {
      Status s = c->status();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  struct Node {
    Slice key;  // the child's current key, valid until the child moves
    Iterator* it;
    size_t index;  // position in children_: breaks key ties
  };

  bool Less(const Node& a, const Node& b) const {
    int c = cmp_.Compare(a.key, b.key);
    return c < 0 || (c == 0 && a.index < b.index);
  }

  void BuildHeap() {
    heap_.clear();
    for (size_t i = 0; i < children_.size(); i++) {
      Iterator* c = children_[i].get();
      if (c->Valid()) heap_.push_back({c->key(), c, i});
    }
    for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    Node node = heap_[i];
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && Less(heap_[child + 1], heap_[child])) child++;
      if (!Less(heap_[child], node)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = node;
  }

  Comparator cmp_;
  std::vector<std::unique_ptr<Iterator>> children_;
  std::vector<Node> heap_;
};

}  // namespace kvaccel::lsm
