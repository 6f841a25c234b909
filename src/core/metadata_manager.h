// Metadata Manager (paper §V-C): an in-memory hash table recording which
// user keys currently have their newest version in the Dev-LSM. It is the
// consistency keystone: membership decides the read path, and a normal-path
// write deletes the entry ("the latest key-value pair is now in Main-LSM").
//
// Exact membership (not a bloom filter) is required for read-your-writes
// across path switches. Costs are charged per Table VI. Volatile by design:
// a crash loses it, and recovery rebuilds from a full Dev-LSM scan (§VI-D).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/units.h"
#include "core/config.h"
#include "sim/cpu_pool.h"
#include "sim/sim_env.h"

namespace kvaccel::core {

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
    if (keys_.insert_or_assign(key.ToString(), seq).second) snapshot_.reset();
  }

  // Bulk insert for one redirected batch: same per-record hash-table cost as
  // Insert, but charged as a single CPU burst (one bookkeeping sleep instead
  // of N), mirroring how the batch rode a single device command.
  void InsertBatch(const std::vector<std::pair<std::string, uint64_t>>& recs) {
    if (recs.empty()) return;
    Charge(options_.md_insert_ns * static_cast<double>(recs.size()));
    stats_->md_inserts += recs.size();
    for (const auto& [key, seq] : recs) {
      if (keys_.insert_or_assign(key, seq).second) snapshot_.reset();
    }
  }

  // Membership test ("key check").
  bool Check(const Slice& key) {
    Charge(options_.md_check_ns);
    stats_->md_checks++;
    return keys_.count(key.ToString()) > 0;
  }

  // Sequence of the recorded device-side version; 0 when absent. Costs a
  // key check.
  uint64_t GetSeq(const Slice& key) {
    Charge(options_.md_check_ns);
    stats_->md_checks++;
    auto it = keys_.find(key.ToString());
    return it == keys_.end() ? 0 : it->second;
  }

  // Removes the record (newest version is now in Main-LSM, or rolled back).
  void Delete(const Slice& key) {
    Charge(options_.md_delete_ns);
    stats_->md_deletes++;
    if (keys_.erase(key.ToString()) > 0) snapshot_.reset();
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
      for (const auto& [key, seq] : keys_) keys->insert(key);
      snapshot_ = std::move(keys);
    }
    return snapshot_;
  }

  // Uncharged dump of the table for offline integrity checking.
  std::vector<std::pair<std::string, uint64_t>> Entries() const {
    return {keys_.begin(), keys_.end()};
  }

  // Crash simulation: drops the volatile table (paper §VI-D).
  void LoseAll() {
    keys_.clear();
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
  std::unordered_map<std::string, uint64_t> keys_;  // key -> host seq
  KeySnapshot snapshot_;  // cached SnapshotKeySet(); null when stale
};

}  // namespace kvaccel::core
