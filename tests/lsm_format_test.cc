#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "lsm/bloom.h"
#include "lsm/cache.h"
#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "lsm/memtable.h"
#include "lsm/skiplist.h"
#include "lsm/write_batch.h"

namespace kvaccel::lsm {
namespace {

TEST(DbFormatTest, PackUnpack) {
  uint64_t packed = PackSequenceAndType(12345, ValueType::kValue);
  SequenceNumber seq;
  ValueType t;
  UnpackSequenceAndType(packed, &seq, &t);
  EXPECT_EQ(seq, 12345u);
  EXPECT_EQ(t, ValueType::kValue);
}

TEST(DbFormatTest, InternalKeyExtraction) {
  std::string ikey;
  AppendInternalKey(&ikey, "mykey", 42, ValueType::kDeletion);
  EXPECT_EQ(ikey.size(), 5u + 8u);
  EXPECT_EQ(ExtractUserKey(ikey).ToString(), "mykey");
  EXPECT_EQ(ExtractSequence(ikey), 42u);
  EXPECT_EQ(ExtractValueType(ikey), ValueType::kDeletion);
}

TEST(DbFormatTest, ComparatorOrdersUserKeyAscSeqDesc) {
  InternalKeyComparator cmp;
  std::string a, b, c;
  AppendInternalKey(&a, "aaa", 100, ValueType::kValue);
  AppendInternalKey(&b, "aaa", 50, ValueType::kValue);
  AppendInternalKey(&c, "bbb", 1, ValueType::kValue);
  EXPECT_LT(cmp.Compare(a, b), 0);  // newer sorts first for same user key
  EXPECT_LT(cmp.Compare(b, c), 0);  // user key dominates
  EXPECT_EQ(cmp.Compare(a, a), 0);
}

TEST(DbFormatTest, LookupKeySeeksNewest) {
  InternalKeyComparator cmp;
  LookupKey lk("k", 100);
  std::string newer, exact, older;
  AppendInternalKey(&newer, "k", 150, ValueType::kValue);
  AppendInternalKey(&exact, "k", 100, ValueType::kValue);
  AppendInternalKey(&older, "k", 50, ValueType::kValue);
  // Seek key must land after entries newer than the snapshot but at/before
  // the snapshot version.
  EXPECT_GT(cmp.Compare(lk.internal_key(), newer), 0);
  EXPECT_LE(cmp.Compare(lk.internal_key(), exact), 0);
  EXPECT_LT(cmp.Compare(lk.internal_key(), older), 0);
}

struct IntComparator {
  int operator()(const uint64_t& a, const uint64_t& b) const {
    if (a < b) return -1;
    if (a > b) return +1;
    return 0;
  }
};

TEST(SkipListTest, InsertAndIterateSorted) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  Random64 rng(301);
  std::set<uint64_t> keys;
  for (int i = 0; i < 2000; i++) {
    uint64_t k = rng.Uniform(100000);
    if (keys.insert(k).second) list.Insert(k);
  }
  for (uint64_t k : keys) EXPECT_TRUE(list.Contains(k));
  EXPECT_FALSE(list.Contains(1000001));

  SkipList<uint64_t, IntComparator>::Iterator it(&list);
  it.SeekToFirst();
  for (uint64_t k : keys) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), k);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(SkipListTest, Seek) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  for (uint64_t k : {10u, 20u, 30u}) list.Insert(k);
  SkipList<uint64_t, IntComparator>::Iterator it(&list);
  it.Seek(15);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 20u);
  it.Seek(30);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 30u);
  it.Seek(31);
  EXPECT_FALSE(it.Valid());
}

TEST(MemTableTest, AddGet) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "apple", Value::Inline("red"));
  mem.Add(2, ValueType::kValue, "banana", Value::Inline("yellow"));
  Value v;
  Status s;
  EXPECT_TRUE(mem.Get(LookupKey("apple", 10), &v, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(v.Materialize(), "red");
  EXPECT_FALSE(mem.Get(LookupKey("cherry", 10), &v, &s));
  EXPECT_EQ(mem.NumEntries(), 2u);
}

TEST(MemTableTest, NewerVersionWins) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", Value::Inline("v1"));
  mem.Add(5, ValueType::kValue, "k", Value::Inline("v2"));
  Value v;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("k", 100), &v, &s));
  EXPECT_EQ(v.Materialize(), "v2");
  // Snapshot below the second version sees the first.
  ASSERT_TRUE(mem.Get(LookupKey("k", 3), &v, &s));
  EXPECT_EQ(v.Materialize(), "v1");
}

TEST(MemTableTest, TombstoneDecides) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", Value::Inline("v"));
  mem.Add(2, ValueType::kDeletion, "k", Value());
  Value v;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("k", 100), &v, &s));
  EXPECT_TRUE(s.IsNotFound());
}

TEST(MemTableTest, LogicalSizeCountsSyntheticValues) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "abcd", Value::Synthetic(7, 4096));
  EXPECT_EQ(mem.LogicalSize(), 4u + 8u + 4096u);
  // Host memory stays compact.
  EXPECT_LT(mem.ApproximateMemoryUsage(), 2u << 20);
}

TEST(MemTableTest, IteratorSortedByInternalKey) {
  MemTable mem;
  mem.Add(3, ValueType::kValue, "b", Value::Inline("b3"));
  mem.Add(1, ValueType::kValue, "a", Value::Inline("a1"));
  mem.Add(2, ValueType::kValue, "c", Value::Inline("c2"));
  auto it = mem.NewIterator();
  std::vector<std::string> keys;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    keys.push_back(ExtractUserKey(it->key()).ToString());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(WriteBatchTest, PutDeleteRoundTrip) {
  WriteBatch batch;
  batch.Put("k1", Value::Inline("v1"));
  batch.Delete("k2");
  batch.Put("k3", Value::Synthetic(9, 100));
  batch.SetSequence(50);
  EXPECT_EQ(batch.Count(), 3u);
  EXPECT_EQ(batch.LogicalSize(), (2 + 8 + 2) + (2 + 8) + (2 + 8 + 100));

  WriteBatch parsed;
  ASSERT_TRUE(WriteBatch::ParseFrom(batch.Contents(), &parsed).ok());
  EXPECT_EQ(parsed.Count(), 3u);
  EXPECT_EQ(parsed.Sequence(), 50u);
  EXPECT_EQ(parsed.LogicalSize(), batch.LogicalSize());

  MemTable mem;
  ASSERT_TRUE(parsed.InsertInto(&mem).ok());
  Value v;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("k1", 100), &v, &s));
  EXPECT_EQ(v.Materialize(), "v1");
  ASSERT_TRUE(mem.Get(LookupKey("k2", 100), &v, &s));
  EXPECT_TRUE(s.IsNotFound());
}

TEST(WriteBatchTest, SequencesAreConsecutive) {
  WriteBatch batch;
  batch.Put("a", Value::Inline("1"));
  batch.Put("a", Value::Inline("2"));
  batch.SetSequence(10);
  MemTable mem;
  ASSERT_TRUE(batch.InsertInto(&mem).ok());
  Value v;
  Status s;
  ASSERT_TRUE(mem.Get(LookupKey("a", 100), &v, &s));
  EXPECT_EQ(v.Materialize(), "2");  // seq 11 wins
  ASSERT_TRUE(mem.Get(LookupKey("a", 10), &v, &s));
  EXPECT_EQ(v.Materialize(), "1");
}

TEST(WriteBatchTest, ParseRejectsGarbage) {
  WriteBatch batch;
  EXPECT_TRUE(WriteBatch::ParseFrom(Slice("xy"), &batch).IsCorruption());
  std::string bad(12, '\0');
  bad[8] = 2;  // claims 2 entries, provides none
  EXPECT_TRUE(WriteBatch::ParseFrom(bad, &batch).IsCorruption());
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bloom(10);
  std::vector<uint32_t> hashes;
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; i++) {
    keys.push_back("key" + std::to_string(i));
    hashes.push_back(BloomFilter::HashKey(keys.back()));
  }
  std::string filter;
  bloom.CreateFilter(hashes, &filter);
  for (const auto& k : keys) {
    EXPECT_TRUE(bloom.KeyMayMatch(BloomFilter::HashKey(k), filter));
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilter bloom(10);
  std::vector<uint32_t> hashes;
  for (int i = 0; i < 1000; i++) {
    hashes.push_back(BloomFilter::HashKey("in" + std::to_string(i)));
  }
  std::string filter;
  bloom.CreateFilter(hashes, &filter);
  int false_positives = 0;
  for (int i = 0; i < 10000; i++) {
    if (bloom.KeyMayMatch(BloomFilter::HashKey("out" + std::to_string(i)),
                          filter)) {
      false_positives++;
    }
  }
  // ~1% expected at 10 bits/key; allow generous slack.
  EXPECT_LT(false_positives, 300);
}

TEST(BlockCacheTest, HitMissAndLru) {
  BlockCache cache(100);
  auto block = [](uint64_t logical) {
    auto b = std::make_shared<BlockCache::Block>();
    b->logical = logical;
    return b;
  };
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 0, block(40));
  cache.Insert(1, 100, block(40));
  EXPECT_NE(cache.Lookup(1, 0), nullptr);   // refresh: (1,0) is MRU
  cache.Insert(2, 0, block(40));            // evicts LRU (1,100)
  EXPECT_EQ(cache.Lookup(1, 100), nullptr);
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(2, 0), nullptr);
  EXPECT_LE(cache.usage(), 100u);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(BlockCacheTest, ZeroCapacityCachesNothing) {
  BlockCache cache(0);
  auto b = std::make_shared<BlockCache::Block>();
  b->logical = 10;
  cache.Insert(1, 0, b);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
}

TEST(BlockCacheTest, Erase) {
  BlockCache cache(1000);
  auto b = std::make_shared<BlockCache::Block>();
  b->logical = 10;
  cache.Insert(3, 7, b);
  EXPECT_NE(cache.Lookup(3, 7), nullptr);
  cache.Erase(3, 7);
  EXPECT_EQ(cache.Lookup(3, 7), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

// ---------------- MergingIterator ----------------

// A sorted in-memory child. Positions at or past `fail_at` are an I/O
// error: the child is invalid there and status() reports it.
class VectorIterator : public Iterator {
 public:
  using Entries = std::vector<std::pair<std::string, std::string>>;
  VectorIterator(Entries entries, size_t fail_at, int* nexts)
      : entries_(std::move(entries)), fail_at_(fail_at), nexts_(nexts) {}

  bool Valid() const override {
    return pos_ < entries_.size() && pos_ < fail_at_;
  }
  void SeekToFirst() override { pos_ = 0; }
  void Seek(const Slice& target) override {
    InternalKeyComparator cmp;
    pos_ = 0;
    while (pos_ < entries_.size() &&
           cmp.Compare(entries_[pos_].first, target) < 0) {
      pos_++;
    }
  }
  void Next() override {
    ASSERT_TRUE(Valid());
    pos_++;
    (*nexts_)++;
  }
  Slice key() const override { return entries_[pos_].first; }
  Slice value() const override { return entries_[pos_].second; }
  Status status() const override {
    return pos_ >= fail_at_ ? Status::IOError("child failed") : Status::OK();
  }

 private:
  Entries entries_;
  size_t fail_at_;
  size_t pos_ = 0;
  int* nexts_;
};

struct MergeCase {
  std::vector<VectorIterator::Entries> children;
  std::vector<size_t> fail_at;  // SIZE_MAX: never fails
};

// Random children over a small internal-key space, so the same internal key
// often appears in several children. Some children are empty, some fail
// from the start, some fail part-way through.
MergeCase RandomMergeCase(Random64* rnd) {
  InternalKeyComparator cmp;
  MergeCase mc;
  const size_t n = rnd->Uniform(9);
  for (size_t c = 0; c < n; c++) {
    std::vector<std::string> keys;
    const size_t len = rnd->OneIn(5) ? 0 : rnd->Uniform(40);
    for (size_t i = 0; i < len; i++) {
      std::string ikey;
      AppendInternalKey(&ikey, "key" + std::to_string(rnd->Uniform(30)),
                        1 + rnd->Uniform(3), ValueType::kValue);
      keys.push_back(ikey);
    }
    std::sort(keys.begin(), keys.end(), [&](const auto& a, const auto& b) {
      return cmp.Compare(a, b) < 0;
    });
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    VectorIterator::Entries entries;
    for (size_t i = 0; i < keys.size(); i++) {
      entries.emplace_back(keys[i], "c" + std::to_string(c) + "#" +
                                        std::to_string(i));
    }
    size_t fail_at = SIZE_MAX;
    if (rnd->OneIn(6)) fail_at = 0;
    if (rnd->OneIn(6)) fail_at = rnd->Uniform(entries.size() + 1);
    mc.children.push_back(std::move(entries));
    mc.fail_at.push_back(fail_at);
  }
  return mc;
}

using MergedEntries = std::vector<std::pair<std::string, std::string>>;

// Reference: every entry a child can yield at or after `target` (all when
// null), stably ordered by internal key, so equal keys keep child order.
MergedEntries ReferenceMerge(const MergeCase& mc, const std::string* target) {
  InternalKeyComparator cmp;
  MergedEntries all;
  for (size_t c = 0; c < mc.children.size(); c++) {
    const auto& entries = mc.children[c];
    for (size_t i = 0; i < entries.size(); i++) {
      if (target != nullptr && cmp.Compare(entries[i].first, *target) < 0) {
        continue;
      }
      if (i >= mc.fail_at[c]) break;
      all.push_back(entries[i]);
    }
  }
  std::stable_sort(all.begin(), all.end(), [&](const auto& a, const auto& b) {
    return cmp.Compare(a.first, b.first) < 0;
  });
  return all;
}

std::unique_ptr<MergingIterator<InternalKeyComparator>> BuildMerge(
    const MergeCase& mc, int* nexts) {
  std::vector<std::unique_ptr<Iterator>> children;
  for (size_t c = 0; c < mc.children.size(); c++) {
    children.push_back(std::make_unique<VectorIterator>(mc.children[c],
                                                        mc.fail_at[c], nexts));
  }
  return std::make_unique<MergingIterator<InternalKeyComparator>>(
      InternalKeyComparator(), std::move(children));
}

// Drains `it`, checking that each merged Next advances exactly one child.
MergedEntries Drain(Iterator* it, const int* nexts) {
  MergedEntries out;
  while (it->Valid()) {
    out.emplace_back(it->key().ToString(), it->value().ToString());
    const int before = *nexts;
    it->Next();
    EXPECT_EQ(*nexts, before + 1);
  }
  return out;
}

// After the drain every child has run off its end, so status() carries an
// error exactly when some child fails somewhere.
bool AnyChildFails(const MergeCase& mc) {
  for (size_t c = 0; c < mc.children.size(); c++) {
    if (mc.fail_at[c] <= mc.children[c].size()) return true;
  }
  return false;
}

TEST(MergingIteratorTest, MatchesStableReferenceMerge) {
  Random64 rnd(301);
  for (int trial = 0; trial < 500; trial++) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const MergeCase mc = RandomMergeCase(&rnd);
    int nexts = 0;
    auto it = BuildMerge(mc, &nexts);
    it->SeekToFirst();
    EXPECT_EQ(Drain(it.get(), &nexts), ReferenceMerge(mc, nullptr));
    EXPECT_EQ(it->status().ok(), !AnyChildFails(mc));

    for (int s = 0; s < 4; s++) {
      std::string target;
      AppendInternalKey(&target, "key" + std::to_string(rnd.Uniform(32)),
                        rnd.Uniform(5), ValueType::kValue);
      it->Seek(target);
      EXPECT_EQ(Drain(it.get(), &nexts), ReferenceMerge(mc, &target));
      EXPECT_EQ(it->status().ok(), !AnyChildFails(mc));
    }
  }
}

TEST(MergingIteratorTest, EarliestChildWinsTies) {
  std::string a, b;
  AppendInternalKey(&a, "a", 5, ValueType::kValue);
  AppendInternalKey(&b, "b", 5, ValueType::kValue);
  MergeCase mc;
  mc.children = {{{b, "first"}}, {{a, "second-a"}, {b, "second"}}, {},
                 {{b, "fourth"}}};
  mc.fail_at.assign(4, SIZE_MAX);
  int nexts = 0;
  auto it = BuildMerge(mc, &nexts);
  it->SeekToFirst();
  const MergedEntries want = {
      {a, "second-a"}, {b, "first"}, {b, "second"}, {b, "fourth"}};
  EXPECT_EQ(Drain(it.get(), &nexts), want);
  it->Seek(b);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "first");
  EXPECT_TRUE(it->status().ok());
}

// A child that errors mid-merge drops out of the merge and its error shows
// in status(); the other children keep merging.
TEST(MergingIteratorTest, ChildErrorShowsInStatus) {
  std::string k1, k2, k3;
  AppendInternalKey(&k1, "k1", 1, ValueType::kValue);
  AppendInternalKey(&k2, "k2", 1, ValueType::kValue);
  AppendInternalKey(&k3, "k3", 1, ValueType::kValue);
  MergeCase mc;
  mc.children = {{{k1, "x1"}, {k2, "x2"}, {k3, "x3"}}, {{k2, "y2"}}};
  mc.fail_at = {1, SIZE_MAX};
  int nexts = 0;
  auto it = BuildMerge(mc, &nexts);
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "x1");
  EXPECT_TRUE(it->status().ok());
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "y2");
  EXPECT_TRUE(it->status().IsIOError()) << it->status().ToString();
  it->Next();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().IsIOError());
}

}  // namespace
}  // namespace kvaccel::lsm
