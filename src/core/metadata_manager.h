// Metadata Manager (paper §V-C): an in-memory hash table recording which
// user keys currently have their newest version in the Dev-LSM. It is the
// consistency keystone: membership decides the read path, and a normal-path
// write deletes the entry ("the latest key-value pair is now in Main-LSM").
//
// Exact membership (not a bloom filter) is required for read-your-writes
// across path switches. Costs are charged per Table VI. Volatile by design:
// a crash loses it, and recovery rebuilds from a full Dev-LSM scan (§VI-D).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/slice.h"
#include "common/units.h"
#include "core/config.h"
#include "sim/cpu_pool.h"
#include "sim/sim_env.h"

namespace kvaccel::core {

// 32-bit hash of a metadata key: it picks the home slot and is the slot's
// tag. Seeded apart from the shard router's Hash64(key) % N, so one shard's
// keys do not share their low bits.
struct MetadataKeyHash {
  uint32_t operator()(std::string_view key) const {
    return static_cast<uint32_t>(
        Hash64(key.data(), key.size(), 0x6d645f7461626c65ull) >> 32);
  }
};

// The Metadata Manager's hash table: user key -> host sequence number.
// Entries live in a dense vector; an open-addressing index of 8-byte slots
// {entry index + 1 (0 = empty), hash tag} finds them by linear probing, and
// a tag match is confirmed by comparing the key. Erase removes by
// backward-shift (no tombstones) and fills the entry's hole with the last
// entry, so entries() is insertion order perturbed by erases.
template <typename Hash = MetadataKeyHash>
class BasicMetadataTable {
 public:
  using Entry = std::pair<std::string, uint64_t>;

  BasicMetadataTable() { Clear(); }

  // Maps `key` to `seq`, overwriting an existing mapping; true when `key`
  // was absent.
  bool InsertOrAssign(std::string_view key, uint64_t seq) {
    const uint32_t tag = hash_(key);
    size_t i = Probe(key, tag);
    if (slots_[i].entry != 0) {
      entries_[slots_[i].entry - 1].second = seq;
      return false;
    }
    if ((entries_.size() + 1) * 4 > slots_.size() * 3) {
      Grow();
      i = FirstEmpty(tag);
    }
    entries_.emplace_back(key, seq);
    slots_[i] = {static_cast<uint32_t>(entries_.size()), tag};
    return true;
  }

  // The mapped sequence number, or null when `key` is absent. Valid until
  // the table next changes.
  const uint64_t* Find(std::string_view key) const {
    const Slot& slot = slots_[Probe(key, hash_(key))];
    return slot.entry == 0 ? nullptr : &entries_[slot.entry - 1].second;
  }

  // Removes `key`; true when it was present.
  bool Erase(std::string_view key) {
    size_t hole = Probe(key, hash_(key));
    const uint32_t entry = slots_[hole].entry;
    if (entry == 0) return false;
    const auto last = static_cast<uint32_t>(entries_.size());
    if (entry != last) {
      slots_[SlotOf(last)].entry = entry;
      entries_[entry - 1] = std::move(entries_.back());
    }
    entries_.pop_back();
    // Backward-shift: pull each later slot of the run into the hole unless
    // its home lies cyclically in (hole, j].
    for (size_t j = (hole + 1) & mask_; slots_[j].entry != 0;
         j = (j + 1) & mask_) {
      const size_t home = slots_[j].tag & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    return true;
  }

  // Drops every entry and releases the memory.
  void Clear() {
    entries_ = {};
    slots_ = std::vector<Slot>(kMinSlots);
    mask_ = kMinSlots - 1;
  }

  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  struct Slot {
    uint32_t entry = 0;  // index into entries_ + 1; 0 = empty
    uint32_t tag = 0;    // hash_(key)
  };
  static_assert(sizeof(Slot) == 8);
  static constexpr size_t kMinSlots = 16;

  // The slot holding `key`, or the empty slot that ends its probe run. The
  // load factor stays at or below 3/4, so an empty slot always exists.
  size_t Probe(std::string_view key, uint32_t tag) const {
    for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.entry == 0) return i;
      if (slot.tag == tag && entries_[slot.entry - 1].first == key) return i;
    }
  }

  size_t FirstEmpty(uint32_t tag) const {
    size_t i = tag & mask_;
    while (slots_[i].entry != 0) i = (i + 1) & mask_;
    return i;
  }

  // The slot pointing at entry number `entry` (index + 1).
  size_t SlotOf(uint32_t entry) const {
    size_t i = hash_(entries_[entry - 1].first) & mask_;
    while (slots_[i].entry != entry) i = (i + 1) & mask_;
    return i;
  }

  void Grow() {
    assert(slots_.size() <= (size_t{1} << 31));
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(old.size() * 2);
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.entry != 0) slots_[FirstEmpty(slot.tag)] = slot;
    }
  }

  [[no_unique_address]] Hash hash_;
  std::vector<Entry> entries_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

using MetadataTable = BasicMetadataTable<>;

class MetadataManager {
 public:
  MetadataManager(sim::SimEnv* env, sim::CpuPool* host_cpu,
                  const KvaccelOptions& options, KvaccelStats* stats)
      : env_(env), cpu_(host_cpu), options_(options), stats_(stats) {}

  // Records that `key`'s newest version lives in the Dev-LSM, written with
  // host sequence number `seq` (lets rollback recognize records superseded
  // by a re-redirection that happened during its scan).
  void Insert(const Slice& key, uint64_t seq) {
    Charge(options_.md_insert_ns);
    stats_->md_inserts++;
    if (keys_.InsertOrAssign(key.view(), seq)) snapshot_.reset();
  }

  // Bulk insert for one redirected batch: same per-record hash-table cost as
  // Insert, but charged as a single CPU burst (one bookkeeping sleep instead
  // of N), mirroring how the batch rode a single device command.
  void InsertBatch(const std::vector<std::pair<std::string, uint64_t>>& recs) {
    if (recs.empty()) return;
    Charge(options_.md_insert_ns * static_cast<double>(recs.size()));
    stats_->md_inserts += recs.size();
    for (const auto& [key, seq] : recs) {
      if (keys_.InsertOrAssign(key, seq)) snapshot_.reset();
    }
  }

  // Membership test ("key check").
  bool Check(const Slice& key) {
    Charge(options_.md_check_ns);
    stats_->md_checks++;
    return keys_.Find(key.view()) != nullptr;
  }

  // Sequence of the recorded device-side version; 0 when absent. Costs a
  // key check.
  uint64_t GetSeq(const Slice& key) {
    Charge(options_.md_check_ns);
    stats_->md_checks++;
    const uint64_t* seq = keys_.Find(key.view());
    return seq == nullptr ? 0 : *seq;
  }

  // Removes the record (newest version is now in Main-LSM, or rolled back).
  void Delete(const Slice& key) {
    Charge(options_.md_delete_ns);
    stats_->md_deletes++;
    if (keys_.Erase(key.view())) snapshot_.reset();
  }

  // Immutable copy of the key set, taken when a snapshot iterator is built:
  // tie arbitration between the main-LSM and Dev-LSM cursors must use the
  // authority map as of iterator creation, not live state, or a rollback
  // completing mid-scan flips authority under the reader. Charged as one
  // check, like a real store publishing a versioned epoch pointer: the copy
  // is shared by every iterator built until the key set next changes.
  using KeySnapshot = std::shared_ptr<const std::unordered_set<std::string>>;
  KeySnapshot SnapshotKeySet() {
    Charge(options_.md_check_ns);
    stats_->md_checks++;
    if (snapshot_ == nullptr) {
      auto keys = std::make_shared<std::unordered_set<std::string>>();
      keys->reserve(keys_.size());
      for (const auto& [key, seq] : keys_.entries()) keys->insert(key);
      snapshot_ = std::move(keys);
    }
    return snapshot_;
  }

  // Uncharged dump of the table for offline integrity checking, in the
  // table's dense order.
  std::vector<std::pair<std::string, uint64_t>> Entries() const {
    return keys_.entries();
  }

  // Crash simulation: drops the volatile table (paper §VI-D).
  void LoseAll() {
    keys_.Clear();
    snapshot_.reset();
  }

  size_t Size() const { return keys_.size(); }
  bool Empty() const { return keys_.empty(); }

 private:
  void Charge(double ns) {
    // Sub-microsecond bookkeeping: account CPU busy time and op latency.
    cpu_->Charge(ns);
    env_->SleepFor(static_cast<Nanos>(ns + 0.5));
  }

  sim::SimEnv* env_;
  sim::CpuPool* cpu_;
  const KvaccelOptions& options_;
  KvaccelStats* stats_;
  MetadataTable keys_;  // key -> host seq
  KeySnapshot snapshot_;  // cached SnapshotKeySet(); null when stale
};

}  // namespace kvaccel::core
