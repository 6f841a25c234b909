// kvbench: the repository benchmark program.
//
// Runs one named workload against the KVACCEL system through its public
// facades (harness::SystemUnderTest, which wraps core::KvaccelDB and
// core::ShardedKvaccelDB) and the public stats accessors of lsm, devlsm, ssd,
// sim and ndp. Every facade call is timed here, in virtual ns
// (SimEnv::Now()) and, in a traced run, in host ns. Results are checked, a
// human-readable report is printed, and the last line of stdout is one JSON
// object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//   kvbench --workload=NAME --seed=N --seconds=N --trace=0|1
//           [--spans_out=PATH]
//
// --trace=0 prints the end-to-end metrics; --trace=1 runs the window twice
// (untraced, then with spans on), checks that both give identical modelled
// metrics and prints the per-layer metrics plus a span self-time table.
// The process pins itself to one CPU (the last one it may run on) before any
// thread starts: the simulator runs one simulated thread at a
// time, and pinning is what makes the host-plane numbers repeatable.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/db_checker.h"
#include "common/histogram.h"
#include "common/random.h"
#include "fs/simfs.h"
#include "harness/presets.h"
#include "harness/sut.h"
#include "harness/workload.h"
#include "ndp/ndp_device.h"
#include "sim/cpu_pool.h"
#include "sim/sim_env.h"
#include "ssd/hybrid_ssd.h"

namespace kvaccel::kvbench {
namespace {

using harness::MakeKey;

// ---------------------------------------------------------------- workloads

enum class Loop { kClosed, kOpen, kSeek };

struct WorkloadSpec {
  const char* name;
  Loop loop;
  // Size scale of the SSD (capacity) and of the seekrandom preload. The LSM
  // options stay at paper scale (SutConfig::scale = 1), exactly as
  // kvaccel_dbbench and the paper benches configure them.
  double scale = 0.125;
  int compaction_threads = 1;
  core::RollbackScheme rollback = core::RollbackScheme::kDisabled;
  int shards = 1;
  bool ndp = false;
  uint64_t key_space = 1ull << 31;
  uint32_t value_size = 4096;
  int read_threads = 0;
  // Virtual seconds of measured window per --seconds (closed/open loops).
  double virtual_per_second = 6;
  // Open loop: total Poisson rate over all actors, actors, put share.
  double arrival_rate = 0;
  int actors = 0;
  double put_pct = 90;
  double zipf_theta = 0.99;
  // Seek loop: preload bytes at paper scale (scaled by `scale`), scans per
  // --seconds and Nexts per scan.
  uint64_t preload_bytes = 0;
  uint64_t scans_per_second = 0;
  int nexts_per_scan = 1024;
  // Set-ups measured per untraced run (at least one per sub-run); setup_s is
  // their median.
  int setups = 5;
  // Untraced runs measure this many windows, each set up afresh with its own
  // seed, and report per-metric medians (workloads whose results swing from
  // seed to seed).
  int subruns = 1;
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    // Paper workload A, Fig 12 KVACCEL(1): one closed-loop writer, uniform
    // 4 B keys over 2^31, 4 KB values, 1 compaction thread, no rollback.
    WorkloadSpec a{"fillrandom", Loop::kClosed};
    v.push_back(a);
    // Paper workload C, Fig 13 KVACCEL-E: 1 writer + 2 unthrottled readers,
    // eager rollback, 4 compaction threads.
    WorkloadSpec c{"readwhilewriting", Loop::kClosed};
    c.compaction_threads = 4;
    c.rollback = core::RollbackScheme::kEager;
    c.read_threads = 2;
    c.subruns = 3;
    v.push_back(c);
    // 4 hash shards with NDP auto placement, 4 open-loop Poisson actors,
    // 90/10 put/get, scrambled Zipfian 0.99 over 2^20 keys.
    WorkloadSpec o{"openloop-sharded", Loop::kOpen};
    o.shards = 4;
    o.ndp = true;
    o.key_space = 1ull << 20;
    o.rollback = core::RollbackScheme::kLazy;
    o.arrival_rate = 16000;
    o.actors = 4;
    o.virtual_per_second = 4;
    o.subruns = 3;
    v.push_back(o);
    // Paper workload D / Table V: preload, flush, settle, then closed-loop
    // Seek + 1024 Next; rollback disabled so the Dev-LSM still holds pairs.
    WorkloadSpec d{"seekrandom", Loop::kSeek};
    d.compaction_threads = 4;
    d.preload_bytes = 8ull << 30;
    d.scans_per_second = 130;
    d.setups = 3;
    v.push_back(d);
    return v;
  }();
  return specs;
}

// ------------------------------------------------------------------- clocks

uint64_t HostNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  uint64_t ctx_switches = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

// Resets the process's peak resident set size (Linux clear_refs "5"), so
// PeakRssMb() reports the peak since the reset. Returns false if refused.
bool ResetPeakRss() {
  FILE* f = fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = fputs("5", f) >= 0;
  return fclose(f) == 0 && ok;
}

// Peak resident set size (VmHWM) in MB; the process lifetime peak when
// /proc is unavailable.
double PeakRssMb() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    while (fgets(line, sizeof(line), f) != nullptr) {
      unsigned long long kb = 0;
      if (sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
        fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    fclose(f);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -------------------------------------------------------------------- spans

// One facade call, or one setup phase. `parent` is the index + 1 of the span
// that caused it (0 = none): a scan is the parent of its NewIterator, Seek
// and Next calls. All spans of one foreground operation share `op`.
enum class SpanKind : uint8_t {
  kWrite, kGet, kScan, kNewIter, kSeek, kNext,
  kOpen, kPreload, kFlush, kSettle, kCheck, kClose,
  kCount
};

const char* SpanName(SpanKind k) {
  static const char* kNames[] = {"write",  "get",     "scan",   "iter.new",
                                 "iter.seek", "iter.next", "setup.open",
                                 "setup.preload", "setup.flush",
                                 "setup.settle", "check", "close"};
  return kNames[static_cast<size_t>(k)];
}

struct Span {
  Nanos vstart = 0;
  Nanos vend = 0;
  uint64_t hstart = 0;
  uint64_t hend = 0;
  uint32_t op = 0;
  uint32_t parent = 0;
  SpanKind kind = SpanKind::kWrite;
};

// Times facade calls. Virtual latencies are always kept (they feed the
// end-to-end percentiles); host clocks are read and spans recorded only when
// tracing, so an untraced run pays nothing per call beyond two Now() loads.
class Recorder {
 public:
  struct Open {
    Nanos v0 = 0;
    uint64_t h0 = 0;
    uint64_t c0 = 0;
  };

  Recorder(sim::SimEnv* env, bool tracing) : env_(env), tracing_(tracing) {
    if (tracing_) spans_.reserve(1 << 20);
  }

  Open Begin() const {
    Open o;
    o.v0 = env_->Now();
    if (tracing_) {
      o.h0 = HostNs();
      o.c0 = ThreadCpuNs();
    }
    return o;
  }

  // Closes a call; returns its virtual latency.
  Nanos End(SpanKind kind, const Open& o, uint32_t op, uint32_t parent) {
    const Nanos v1 = env_->Now();
    const Nanos lat = v1 - o.v0;
    const size_t k = static_cast<size_t>(kind);
    vlat_[k].Add(static_cast<uint64_t>(lat));
    if (tracing_) {
      const uint64_t c1 = ThreadCpuNs();
      const uint64_t h1 = HostNs();
      cpu_ns_[k] += c1 - o.c0;
      spans_.push_back(Span{o.v0, v1, o.h0, h1, op, parent, kind});
    }
    return lat;
  }

  // Reserves a parent span slot (index + 1) that EndParent fills later.
  uint32_t BeginParent() {
    if (!tracing_) return 0;
    spans_.push_back(Span{});
    return static_cast<uint32_t>(spans_.size());
  }
  Nanos EndParent(uint32_t slot, SpanKind kind, const Open& o, uint32_t op) {
    const Nanos v1 = env_->Now();
    const size_t k = static_cast<size_t>(kind);
    vlat_[k].Add(static_cast<uint64_t>(v1 - o.v0));
    if (tracing_) {
      const uint64_t c1 = ThreadCpuNs();
      cpu_ns_[k] += c1 - o.c0;
      spans_[slot - 1] = Span{o.v0, v1, o.h0, HostNs(), op, 0, kind};
    }
    return v1 - o.v0;
  }

  const Histogram& vlat(SpanKind k) const {
    return vlat_[static_cast<size_t>(k)];
  }
  double CpuNsMean(SpanKind k) const {
    const size_t i = static_cast<size_t>(k);
    const uint64_t n = vlat_[i].Count();
    return n == 0 ? 0 : static_cast<double>(cpu_ns_[i]) / n;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  sim::SimEnv* env_;
  bool tracing_;
  Histogram vlat_[static_cast<size_t>(SpanKind::kCount)];
  uint64_t cpu_ns_[static_cast<size_t>(SpanKind::kCount)] = {};
  std::vector<Span> spans_;
};

// ------------------------------------------------------------------- ledger

// splitmix64 finalizer: the key-sampling hash, and the Zipfian rank scramble
// of the harness's KeyChooser (spreads the hot set over the key space).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Expected values of a seeded sample of keys (1 in 64 by key hash). For each
// sampled key it keeps the writes that may still be the visible version: a
// write is dropped once another write to the key was issued after it was
// acknowledged. Reads of a sampled key must return one of those versions.
class Ledger {
 public:
  explicit Ledger(uint64_t seed) : salt_(seed * 0x9e3779b97f4a7c15ull) {}

  bool Tracked(uint64_t key) const { return (Mix64(key ^ salt_) & 63) == 0; }

  // A write of `value_seed` to a tracked key was issued / acknowledged.
  void Issue(uint64_t key, uint64_t value_seed, Nanos issue) {
    keys_[key].push_back(Rec{issue, 0, value_seed});
  }
  void Ack(uint64_t key, uint64_t value_seed, Nanos issue, Nanos done) {
    std::vector<Rec>& recs = keys_[key];
    for (Rec& r : recs) {
      if (r.seed == value_seed) r.done = done;
    }
    recs.erase(std::remove_if(recs.begin(), recs.end(),
                              [issue](const Rec& r) {
                                return r.done != 0 && r.done < issue;
                              }),
               recs.end());
  }
  // A failed write leaves its key ambiguous; stop checking the key.
  void Fail(uint64_t key) { ambiguous_.insert(key); }

  // Versions a read issued now may return; `*must_exist` is set when an
  // acknowledged write precedes the read.
  std::vector<uint64_t> Snapshot(uint64_t key, bool* must_exist) const {
    std::vector<uint64_t> seeds;
    *must_exist = false;
    auto it = keys_.find(key);
    if (it == keys_.end()) return seeds;
    for (const Rec& r : it->second) {
      seeds.push_back(r.seed);
      if (r.done != 0) *must_exist = true;
    }
    return seeds;
  }
  bool Allows(uint64_t key, const std::vector<uint64_t>& snapshot,
              uint64_t seed) const {
    if (std::find(snapshot.begin(), snapshot.end(), seed) != snapshot.end()) {
      return true;
    }
    auto it = keys_.find(key);
    if (it == keys_.end()) return false;
    for (const Rec& r : it->second) {
      if (r.seed == seed) return true;
    }
    return false;
  }
  bool Ambiguous(uint64_t key) const { return ambiguous_.count(key) != 0; }

  // Up to `limit` tracked keys with an acknowledged write, in key order.
  std::vector<uint64_t> ReadbackKeys(size_t limit) const {
    std::vector<uint64_t> out;
    for (const auto& [k, recs] : keys_) {
      bool acked = false;
      for (const Rec& r : recs) acked = acked || r.done != 0;
      if (acked && !Ambiguous(k)) out.push_back(k);
    }
    std::sort(out.begin(), out.end());
    if (out.size() > limit) out.resize(limit);
    return out;
  }

 private:
  struct Rec {
    Nanos issue;
    Nanos done;  // 0 while in flight
    uint64_t seed;
  };
  uint64_t salt_;
  std::unordered_map<uint64_t, std::vector<Rec>> keys_;
  std::unordered_set<uint64_t> ambiguous_;
};

uint64_t DecodeKey(const Slice& key) {
  uint64_t v = 0;
  for (size_t i = 0; i < key.size(); i++) {
    v = (v << 8) | static_cast<uint8_t>(key.data()[i]);
  }
  return v;
}

// Reservoir of written keys for the readers, identical (draw for draw) to
// the harness's, so readwhilewriting reproduces kvaccel_dbbench.
class KeyReservoir {
 public:
  void Offer(uint64_t key, Random64* rng) {
    seen_++;
    if (keys_.size() < kCapacity) {
      keys_.push_back(key);
    } else if (rng->Uniform(seen_) < kCapacity) {
      keys_[rng->Uniform(keys_.size())] = key;
    }
  }
  bool Sample(Random64* rng, uint64_t* key) const {
    if (keys_.empty()) return false;
    *key = keys_[rng->Uniform(keys_.size())];
    return true;
  }

 private:
  static constexpr size_t kCapacity = 1 << 16;
  uint64_t seen_ = 0;
  std::vector<uint64_t> keys_;
};

// ------------------------------------------------------------------ the run

struct Counters {
  uint64_t write_entries = 0;
  uint64_t gets = 0;
  uint64_t scan_entries = 0;  // Seeks + Nexts
  uint64_t attempted = 0;
  uint64_t failed_ops = 0;
  uint64_t mismatches = 0;     // reads/scans that returned a wrong answer
  uint64_t order_violations = 0;
  uint64_t scheduled = 0;      // open loop
  uint64_t completed = 0;
  uint64_t abandoned = 0;
  uint64_t late = 0;           // completed after the deadline
  uint64_t readback_probes = 0;
  uint64_t readback_mismatches = 0;
  int checker_errors = 0;
  bool accounting_ok = true;
};

// Snapshot of cumulative layer counters, taken at window start and end.
struct LayerSnap {
  Nanos at = 0;
  lsm::DbStats main;  // aggregated Main-LSM stats (copied)
  core::KvaccelStats kv;
  devlsm::DevLsmStats dev;
  lsm::BlockCacheStats cache;
  Nanos pcie_busy = 0;
  Nanos nand_busy = 0;
  uint64_t nand_read = 0;
  uint64_t nand_written = 0;
  uint64_t pcie_bytes = 0;
  double firmware_busy_s = 0;
  uint64_t ftl_gc_runs = 0;
  std::vector<uint64_t> shard_writes;
  uint64_t arbiter_throttles = 0;
  uint64_t arbiter_throttle_ns = 0;
  ndp::PlannerStats planner;
  double ndp_busy_s = 0;
  uint64_t dev_resident = 0;  // live Dev-LSM entries (redirected pairs)
};

struct Sample {
  Nanos at = 0;
  uint64_t write_entries = 0;
  uint64_t reads = 0;
  uint64_t scan_entries = 0;
  uint64_t redirected = 0;
  int l0_files = 0;           // max over shards
  int imm_memtables = 0;      // max over shards
  uint64_t pending_bytes = 0; // max over shards
  bool stall_imminent = false;
  uint64_t pcie_bytes = 0;
};

struct RunResult {
  double setup_s = 0;       // host seconds: world build .. settled
  double window_vs = 0;     // measured window, virtual seconds
  double window_hs = 0;     // measured window, host seconds
  Usage usage0, usage1;
  Counters c;
  Histogram put_lat;        // issue -> done of each Write call (ns)
  Histogram get_lat;        // issue -> done of each Get call
  Histogram scan_lat;       // NewIterator .. last Next of each scan
  Histogram arrival_lat;    // scheduled -> done, every op (open loop)
  Histogram issue_late;     // scheduled -> issued (open loop)
  std::unique_ptr<Recorder> rec;
  LayerSnap s0, s1;
  std::vector<Sample> samples;
  double cpu_util = 0;      // modelled host CPU over the window
  double nand_bps = 0;
  int nand_channels = 1;
  int firmware_cores = 1;
  double ftl_write_amp = 0;
  uint64_t payload_bytes_per_entry = 0;
  std::vector<Span> setup_spans;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, uint64_t seed, int seconds, bool tracing)
      : spec_(spec), seed_(seed), seconds_(seconds), tracing_(tracing) {}

  // Builds the world, opens the store and runs set-up. When `measure` is
  // false the store is closed right after set-up (extra set-up repetitions
  // for the setup_s median).
  RunResult Run(bool measure);

 private:
  harness::SutConfig SutConfigFor() const;
  void Setup(harness::SystemUnderTest* sut);
  void Measure(harness::SystemUnderTest* sut);
  void Snap(harness::SystemUnderTest* sut, LayerSnap* s);
  void Sampler(harness::SystemUnderTest* sut);
  void Check(harness::SystemUnderTest* sut);
  std::vector<core::KvaccelDB*> Instances(harness::SystemUnderTest* sut);

  void WriterLoop(uint64_t thread_seed);
  void ReaderLoop(uint64_t thread_seed);
  void OpenLoop(uint64_t thread_seed, double rate);
  void SeekLoop(uint64_t thread_seed);
  void TimedGet(uint64_t key, Nanos due, uint32_t op);
  void Completed(Nanos due, Nanos done);
  void RecordSetup(SpanKind kind, uint64_t h0, Nanos v0);

  const WorkloadSpec& spec_;
  uint64_t seed_;
  int seconds_;
  bool tracing_;

  sim::SimEnv* env_ = nullptr;
  ssd::HybridSsd* ssd_ = nullptr;
  sim::CpuPool* host_cpu_ = nullptr;
  ndp::NdpDevice* ndp_ = nullptr;
  harness::SystemUnderTest* sut_ = nullptr;
  RunResult* r_ = nullptr;
  Ledger ledger_{0};
  KeyReservoir reservoir_;
  // Seek loop: the preloaded contents, sorted by key.
  std::vector<std::pair<uint64_t, uint64_t>> preloaded_;
  Nanos window_start_ = 0;
  Nanos window_end_ = 0;
  uint32_t next_op_ = 1;
};

harness::SutConfig Runner::SutConfigFor() const {
  harness::SutConfig c;
  c.kind = harness::SystemKind::kKvaccel;
  c.compaction_threads = spec_.compaction_threads;
  c.rollback = spec_.rollback;
  c.shards = spec_.shards;
  if (spec_.ndp) c.ndp_mode = ndp::OffloadMode::kAuto;
  return c;
}

std::vector<core::KvaccelDB*> Runner::Instances(
    harness::SystemUnderTest* sut) {
  std::vector<core::KvaccelDB*> out;
  if (sut->sharded() != nullptr) {
    for (int i = 0; i < sut->sharded()->num_shards(); i++) {
      out.push_back(sut->sharded()->shard(i));
    }
  } else if (sut->kvaccel() != nullptr) {
    out.push_back(sut->kvaccel());
  }
  return out;
}

void Runner::RecordSetup(SpanKind kind, uint64_t h0, Nanos v0) {
  r_->setup_spans.push_back(
      Span{v0, env_->Now(), h0, HostNs(), 0, 0, kind});
}

RunResult Runner::Run(bool measure) {
  RunResult result;
  r_ = &result;
  ledger_ = Ledger(seed_);
  const uint64_t h_start = HostNs();

  sim::SimEnv env;
  env_ = &env;
  ssd::SsdConfig ssd_config = harness::PaperSsdConfig(spec_.scale);
  const bool sharded = spec_.shards > 1;
  if (sharded) ssd_config.num_namespaces = spec_.shards;
  ssd::HybridSsd ssd(&env, ssd_config);
  ssd_ = &ssd;
  std::unique_ptr<fs::SimFs> fs;
  if (!sharded) fs = std::make_unique<fs::SimFs>(&ssd, 0);
  sim::CpuPool host_cpu(&env, "host", 8);  // Table II: 8 usable cores
  host_cpu_ = &host_cpu;
  std::unique_ptr<ndp::NdpDevice> ndp_dev;
  harness::SutConfig sut_cfg = SutConfigFor();
  if (spec_.ndp) {
    ndp::NdpConfig nc;
    ndp_dev = std::make_unique<ndp::NdpDevice>(&ssd, nc);
    sut_cfg.ndp_device = ndp_dev.get();
    ndp_ = ndp_dev.get();
  }
  lsm::DbEnv denv{&env, &ssd, fs.get(), &host_cpu};
  result.rec = std::make_unique<Recorder>(&env, tracing_);
  result.nand_bps = ssd.nand().total_bytes_per_sec();
  result.nand_channels = ssd.nand().channels();
  result.firmware_cores = ssd.firmware()->cores();
  result.payload_bytes_per_entry = spec_.value_size + 4 + 8;

  bool open_failed = false;
  env.Spawn("kvbench-main", [&] {
    std::unique_ptr<harness::SystemUnderTest> sut;
    uint64_t h0 = HostNs();
    Nanos v0 = env.Now();
    Status s = harness::SystemUnderTest::Open(sut_cfg, denv, &sut);
    if (!s.ok()) {
      fprintf(stderr, "kvbench: open failed: %s\n", s.ToString().c_str());
      open_failed = true;
      return;
    }
    sut_ = sut.get();
    RecordSetup(SpanKind::kOpen, h0, v0);
    Setup(sut.get());
    result.setup_s = static_cast<double>(HostNs() - h_start) / 1e9;
    if (measure) {
      Measure(sut.get());
      h0 = HostNs();
      v0 = env.Now();
      Check(sut.get());
      RecordSetup(SpanKind::kCheck, h0, v0);
    }
    h0 = HostNs();
    v0 = env.Now();
    Status cs = sut->Close();
    RecordSetup(SpanKind::kClose, h0, v0);
    if (!cs.ok()) {
      fprintf(stderr, "kvbench: close failed: %s\n", cs.ToString().c_str());
      result.c.failed_ops++;
    }
    sut_ = nullptr;
  });
  env.Run();
  if (open_failed) {
    result.c.failed_ops++;
    result.c.attempted++;
  }
  ssd_ = nullptr;
  host_cpu_ = nullptr;
  ndp_ = nullptr;
  env_ = nullptr;
  r_ = nullptr;
  return result;
}

// Seekrandom preload: uniform keys, then flush and wait for compaction to
// go idle, so the measured scans start from a settled tree (paper §VI-D).
void Runner::Setup(harness::SystemUnderTest* sut) {
  if (spec_.loop != Loop::kSeek) return;
  uint64_t h0 = HostNs();
  Nanos v0 = env_->Now();
  const uint64_t ops = static_cast<uint64_t>(
      static_cast<double>(spec_.preload_bytes) * spec_.scale) /
      spec_.value_size;
  Random64 rng(seed_);
  std::unordered_map<uint64_t, uint64_t> latest;
  latest.reserve(ops);
  uint64_t value_seed = 1;
  for (uint64_t i = 0; i < ops; i++) {
    const uint64_t k = rng.Uniform(spec_.key_space);
    Status s = sut->Put(MakeKey(k, 4),
                        Value::Synthetic(value_seed, spec_.value_size));
    if (!s.ok()) {
      fprintf(stderr, "kvbench: preload put failed: %s\n",
              s.ToString().c_str());
      r_->c.failed_ops++;
      break;
    }
    latest[k] = value_seed++;
  }
  preloaded_.assign(latest.begin(), latest.end());
  std::sort(preloaded_.begin(), preloaded_.end());
  RecordSetup(SpanKind::kPreload, h0, v0);
  h0 = HostNs();
  v0 = env_->Now();
  if (!sut->FlushAll().ok()) r_->c.failed_ops++;
  RecordSetup(SpanKind::kFlush, h0, v0);
  h0 = HostNs();
  v0 = env_->Now();
  if (!sut->WaitForCompactionIdle().ok()) r_->c.failed_ops++;
  RecordSetup(SpanKind::kSettle, h0, v0);
}

void Runner::Snap(harness::SystemUnderTest* sut, LayerSnap* s) {
  s->at = env_->Now();
  s->main = sut->main_stats();
  s->kv = sut->kvaccel_stats();
  s->dev = sut->devlsm_stats();
  s->cache = sut->cache_stats();
  s->pcie_busy = ssd_->pcie().busy_ns();
  s->pcie_bytes = ssd_->pcie().total_bytes();
  s->nand_busy = ssd_->nand().busy_ns();
  s->nand_read = ssd_->nand().bytes_read();
  s->nand_written = ssd_->nand().bytes_written();
  s->firmware_busy_s = ssd_->firmware()->busy_seconds();
  s->ftl_gc_runs = 0;
  for (int ns = 0; ns < std::max(1, spec_.shards); ns++) {
    s->ftl_gc_runs += ssd_->block_ftl(ns).gc_runs();
  }
  s->shard_writes.clear();
  s->dev_resident = 0;
  for (core::KvaccelDB* kv : Instances(sut)) {
    s->shard_writes.push_back(kv->stats().writes_total);
    s->dev_resident += kv->dev()->NumLiveEntries();
    if (kv->offload_planner() != nullptr) {
      const ndp::PlannerStats& ps = kv->offload_planner()->stats();
      s->planner.device_jobs += ps.device_jobs;
      s->planner.host_jobs += ps.host_jobs;
    }
  }
  if (sut->sharded() != nullptr && sut->sharded()->arbiter() != nullptr) {
    sim::FairShareArbiter* arb = sut->sharded()->arbiter();
    for (int i = 0; i < arb->num_clients(); i++) {
      s->arbiter_throttles += arb->client_stats(i).throttles;
      s->arbiter_throttle_ns += arb->client_stats(i).throttle_ns;
    }
  }
  if (ndp_ != nullptr) s->ndp_busy_s = ndp_->cpu()->busy_seconds();
}

// Samples stall signals and counters every 100 virtual ms of the window.
// It runs in traced and untraced runs alike: it takes the DB mutex, so it is
// part of the schedule, and both modes must share one schedule.
void Runner::Sampler(harness::SystemUnderTest* sut) {
  const Nanos period = FromMillis(100);
  Nanos next = window_start_ + period;
  while (next <= window_end_) {
    env_->SleepUntil(next);
    Sample smp;
    smp.at = env_->Now();
    smp.write_entries = r_->c.write_entries;
    smp.reads = r_->c.gets;
    smp.scan_entries = r_->c.scan_entries;
    smp.pcie_bytes = ssd_->pcie().total_bytes();
    for (core::KvaccelDB* kv : Instances(sut)) {
      const lsm::StallSignals sig = kv->main()->GetStallSignals();
      smp.l0_files = std::max(smp.l0_files, sig.l0_files);
      smp.imm_memtables = std::max(smp.imm_memtables, sig.immutable_memtables);
      smp.pending_bytes = std::max(smp.pending_bytes,
                                   sig.pending_compaction_bytes);
      smp.stall_imminent = smp.stall_imminent || sig.stall_imminent;
      smp.redirected += kv->kv_stats().redirected_writes;
    }
    r_->samples.push_back(smp);
    next += period;
  }
}

void Runner::Measure(harness::SystemUnderTest* sut) {
  window_start_ = env_->Now();
  const bool op_bounded = spec_.loop == Loop::kSeek;
  const Nanos duration =
      op_bounded ? FromSecs(100000)
                 : FromSecs(spec_.virtual_per_second * seconds_);
  window_end_ = window_start_ + duration;
  Snap(sut, &r_->s0);
  r_->usage0 = ProcessUsage();
  const uint64_t h0 = HostNs();

  std::vector<sim::SimEnv::Thread*> workers;
  if (!op_bounded) {
    workers.push_back(env_->Spawn("kvbench-sampler", [&] { Sampler(sut); }));
  }
  // Writer 0 uses seed + 1 and reader t seed + 2 + t, as kvaccel_dbbench.
  switch (spec_.loop) {
    case Loop::kClosed:
      workers.push_back(
          env_->Spawn("writer0", [this] { WriterLoop(seed_ + 1); }));
      for (int t = 0; t < spec_.read_threads; t++) {
        workers.push_back(env_->Spawn("reader" + std::to_string(t), [this, t] {
          ReaderLoop(seed_ + 2 + static_cast<uint64_t>(t));
        }));
      }
      break;
    case Loop::kOpen:
      for (int t = 0; t < spec_.actors; t++) {
        const uint64_t s = t == 0 ? seed_ + 1 : seed_ + 1 + 7919ull * t;
        const double rate = spec_.arrival_rate / spec_.actors;
        workers.push_back(env_->Spawn("actor" + std::to_string(t),
                                      [this, s, rate] { OpenLoop(s, rate); }));
      }
      break;
    case Loop::kSeek:
      workers.push_back(
          env_->Spawn("seeker", [this] { SeekLoop(seed_ + 1); }));
      break;
  }
  for (auto* w : workers) env_->Join(w);

  const Nanos end = op_bounded ? env_->Now()
                               : std::min(env_->Now(), window_end_);
  r_->window_hs = static_cast<double>(HostNs() - h0) / 1e9;
  r_->usage1 = ProcessUsage();
  Snap(sut, &r_->s1);
  const Nanos t1 = std::max(end, window_start_ + 1);
  r_->window_vs = ToSecs(t1 - window_start_);
  r_->cpu_util = host_cpu_->UtilizationBetween(window_start_, t1);
  if (spec_.shards <= 1) {
    r_->ftl_write_amp = ssd_->block_ftl(0).write_amplification();
  } else {
    double wa = 0;
    for (int ns = 0; ns < spec_.shards; ns++) {
      wa += ssd_->block_ftl(ns).write_amplification();
    }
    r_->ftl_write_amp = wa / spec_.shards;
  }
}

void Runner::WriterLoop(uint64_t thread_seed) {
  Random64 rng(thread_seed);
  uint64_t value_seed = thread_seed << 32;
  Recorder* rec = r_->rec.get();
  lsm::WriteBatch batch;
  while (env_->Now() < window_end_) {
    const uint64_t k = rng.Uniform(spec_.key_space);
    const uint64_t vs = value_seed++;
    batch.Clear();
    batch.Put(MakeKey(k, 4), Value::Synthetic(vs, spec_.value_size));
    const bool tracked = ledger_.Tracked(k);
    const uint32_t op = next_op_++;
    const Recorder::Open o = rec->Begin();
    if (tracked) ledger_.Issue(k, vs, o.v0);
    r_->c.attempted++;
    Status s = sut_->Write(&batch);
    const Nanos lat = rec->End(SpanKind::kWrite, o, op, 0);
    if (!s.ok()) {
      r_->c.failed_ops++;
      if (tracked) ledger_.Fail(k);
      break;
    }
    if (tracked) ledger_.Ack(k, vs, o.v0, o.v0 + lat);
    r_->put_lat.Add(static_cast<uint64_t>(lat));
    r_->c.write_entries++;
    Completed(o.v0, o.v0 + lat);
    reservoir_.Offer(k, &rng);
  }
}

// Accounts one completed foreground op, due at `due` (its scheduled arrival
// in the open loop, its issue otherwise).
void Runner::Completed(Nanos due, Nanos done) {
  if (spec_.loop == Loop::kOpen) {
    r_->arrival_lat.Add(static_cast<uint64_t>(done - due));
  }
  if (done - due > FromMicros(1000)) r_->c.late++;
  r_->c.completed++;
}

// One Get, checked: a found value must be a 4 KB synthetic value; for a
// ledger-tracked key it must be one of the key's possibly-visible versions,
// and the key must be found once a write to it was acknowledged.
void Runner::TimedGet(uint64_t key, Nanos due, uint32_t op) {
  Recorder* rec = r_->rec.get();
  bool must_exist = false;
  const bool tracked = ledger_.Tracked(key) && !ledger_.Ambiguous(key);
  std::vector<uint64_t> snapshot;
  if (tracked) snapshot = ledger_.Snapshot(key, &must_exist);
  Value v;
  const Recorder::Open o = rec->Begin();
  r_->c.attempted++;
  Status s = sut_->Get(MakeKey(key, 4), &v);
  const Nanos lat = rec->End(SpanKind::kGet, o, op, 0);
  if (!s.ok() && !s.IsNotFound()) {
    r_->c.failed_ops++;
    return;
  }
  bool good = true;
  if (s.IsNotFound()) {
    good = !must_exist;
  } else if (!v.is_synthetic() || v.logical_size() != spec_.value_size) {
    good = false;
  } else if (tracked) {
    good = ledger_.Allows(key, snapshot, v.seed());
  }
  if (!good) r_->c.mismatches++;
  const Nanos done = o.v0 + lat;
  r_->get_lat.Add(static_cast<uint64_t>(lat));
  r_->c.gets++;
  Completed(due, done);
}

void Runner::ReaderLoop(uint64_t thread_seed) {
  Random64 rng(thread_seed);
  while (env_->Now() < window_end_) {
    uint64_t k = 0;
    if (!reservoir_.Sample(&rng, &k)) {
      env_->SleepFor(FromMicros(100));
      continue;
    }
    TimedGet(k, env_->Now(), next_op_++);
  }
}

// One open-loop actor: a Poisson arrival schedule drained by a single
// server. An op issued late still has its latency measured from its
// scheduled arrival; arrivals still queued when the window closes are
// abandoned (and counted late).
void Runner::OpenLoop(uint64_t thread_seed, double rate) {
  Random64 rng(thread_seed);
  Random64 arrivals(thread_seed + 15485863);
  ZipfianGenerator zipf(spec_.key_space, spec_.zipf_theta,
                        thread_seed + 104729);
  Recorder* rec = r_->rec.get();
  uint64_t value_seed = thread_seed << 32;
  Nanos next = window_start_;
  lsm::WriteBatch batch;
  while (true) {
    const double gap_s = -std::log1p(-arrivals.NextDouble()) / rate;
    next += std::max<Nanos>(1, FromSecs(gap_s));
    if (next >= window_end_) break;
    r_->c.scheduled++;
    if (env_->Now() >= window_end_) {
      r_->c.abandoned++;
      r_->c.late++;
      continue;
    }
    if (env_->Now() < next) env_->SleepUntil(next);
    const Nanos issue = env_->Now();
    r_->issue_late.Add(static_cast<uint64_t>(issue - next));
    const uint64_t k = Mix64(zipf.Next()) % spec_.key_space;
    const uint32_t op = next_op_++;
    if (rng.NextDouble() * 100.0 >= spec_.put_pct) {
      TimedGet(k, next, op);
      continue;
    }
    const uint64_t vs = value_seed++;
    batch.Clear();
    batch.Put(MakeKey(k, 4), Value::Synthetic(vs, spec_.value_size));
    const bool tracked = ledger_.Tracked(k);
    const Recorder::Open o = rec->Begin();
    if (tracked) ledger_.Issue(k, vs, o.v0);
    r_->c.attempted++;
    Status s = sut_->Write(&batch);
    const Nanos lat = rec->End(SpanKind::kWrite, o, op, 0);
    if (!s.ok()) {
      r_->c.failed_ops++;
      if (tracked) ledger_.Fail(k);
      continue;
    }
    if (tracked) ledger_.Ack(k, vs, o.v0, o.v0 + lat);
    const Nanos done = o.v0 + lat;
    r_->put_lat.Add(static_cast<uint64_t>(lat));
    r_->c.write_entries++;
    Completed(next, done);
  }
}

// Closed-loop range queries over the preloaded data. Each scan is checked
// entry by entry against the preloaded contents: keys must ascend strictly
// and match the expected keys and value versions exactly.
void Runner::SeekLoop(uint64_t thread_seed) {
  Random64 rng(thread_seed);
  Recorder* rec = r_->rec.get();
  lsm::ReadOptions ropts;
  ropts.readahead_blocks = 16;  // RocksDB-style auto readahead on scans
  const uint64_t scans =
      spec_.scans_per_second * static_cast<uint64_t>(seconds_);
  for (uint64_t i = 0; i < scans; i++) {
    const uint64_t target = rng.Uniform(spec_.key_space);
    const uint32_t op = next_op_++;
    const Recorder::Open scan_o = rec->Begin();
    const uint32_t slot = rec->BeginParent();
    r_->c.attempted++;
    Recorder::Open o = rec->Begin();
    std::unique_ptr<lsm::Iterator> it = sut_->NewIterator(ropts);
    rec->End(SpanKind::kNewIter, o, op, slot);
    o = rec->Begin();
    it->Seek(MakeKey(target, 4));
    rec->End(SpanKind::kSeek, o, op, slot);
    uint64_t entries = 1;
    auto expect = std::lower_bound(
        preloaded_.begin(), preloaded_.end(),
        std::make_pair(target, uint64_t{0}));
    bool good = true;
    bool have_prev = false;
    uint64_t prev = 0;
    for (int n = 0;; n++) {
      if (!it->Valid()) {
        good = good && expect == preloaded_.end();
        break;
      }
      const uint64_t key = DecodeKey(it->key());
      if (have_prev && key <= prev) r_->c.order_violations++;
      have_prev = true;
      prev = key;
      Slice enc = it->value();
      Value v;
      if (expect == preloaded_.end() || expect->first != key ||
          !Value::DecodeFrom(&enc, &v) || !v.is_synthetic() ||
          v.seed() != expect->second) {
        good = false;
      }
      if (expect != preloaded_.end()) ++expect;
      if (n == spec_.nexts_per_scan) break;
      o = rec->Begin();
      it->Next();
      rec->End(SpanKind::kNext, o, op, slot);
      entries++;
    }
    if (!it->status().ok()) r_->c.failed_ops++;
    it.reset();
    const Nanos lat = rec->EndParent(slot, SpanKind::kScan, scan_o, op);
    if (!good) r_->c.mismatches++;
    r_->scan_lat.Add(static_cast<uint64_t>(lat));
    r_->c.scan_entries += entries;
    Completed(scan_o.v0, scan_o.v0 + lat);
  }
}

// After the window: read back a sample of acknowledged keys, check the
// Metadata-Manager/Dev-LSM invariant on every KVACCEL instance, and check
// the open-loop arrival accounting.
void Runner::Check(harness::SystemUnderTest* sut) {
  Counters& c = r_->c;
  for (uint64_t k : ledger_.ReadbackKeys(256)) {
    bool must_exist = false;
    const std::vector<uint64_t> snap = ledger_.Snapshot(k, &must_exist);
    Value v;
    c.readback_probes++;
    c.attempted++;
    Status s = sut->Get(MakeKey(k, 4), &v);
    if (!s.ok() || !v.is_synthetic() ||
        !ledger_.Allows(k, snap, v.seed())) {
      c.readback_mismatches++;
    }
  }
  for (core::KvaccelDB* kv : Instances(sut)) {
    check::CheckReport report;
    check::DbChecker::CheckDualInterface(kv, &report);
    if (!report.ok()) {
      fprintf(stderr, "kvbench: dual-interface check: %s\n",
              report.ToString().c_str());
      c.checker_errors += report.errors();
    }
  }
  if (spec_.loop == Loop::kOpen) {
    c.accounting_ok = c.scheduled == c.completed + c.abandoned + c.failed_ops;
  }
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample counts etc., for the human-readable report
};

std::string Samples(const Histogram& h, double pct) {
  const double beyond = static_cast<double>(h.Count()) * (100.0 - pct) / 100;
  char buf[96];
  snprintf(buf, sizeof(buf), "n=%" PRIu64 ", %.0f beyond", h.Count(), beyond);
  return buf;
}

double Us(double ns) { return ns / 1e3; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Frac(double num, double den) { return den > 0 ? num / den : 0; }

// Checks that failed: failed calls, wrong answers and broken invariants.
uint64_t Failures(const Counters& c) {
  return c.failed_ops + c.mismatches + c.order_violations +
         c.readback_mismatches + static_cast<uint64_t>(c.checker_errors) +
         (c.accounting_ok ? 0 : 1);
}

// Every end-to-end metric of one run, modelled plane first, then host
// plane. The op_* latencies are those of the workload's primary operation:
// the Write call in the three write workloads, the whole scan (NewIterator
// through the last Next) in seekrandom. The metrics after host_us_per_op
// break the window down by operation kind, comparable with kvaccel_dbbench.
std::vector<Metric> EndToEnd(const WorkloadSpec& spec, const RunResult& r,
                             double setup_s, double peak_rss_mb) {
  const double ws = std::max(r.window_vs, 1e-9);
  const Counters& c = r.c;
  const uint64_t entries = c.write_entries + c.gets + c.scan_entries;
  const double payload_mb =
      static_cast<double>(entries * r.payload_bytes_per_entry) / 1e6;
  const double cpu_pct = r.cpu_util * 100;
  const bool open = spec.loop == Loop::kOpen;
  const Histogram& primary =
      spec.loop == Loop::kSeek ? r.scan_lat : r.put_lat;
  std::vector<Metric> m;
  m.push_back({"ops_kops", entries / ws / 1e3, "Kops/s",
               "foreground entries per virtual s"});
  m.push_back({"op_p50_us", Us(primary.Percentile(50)), "us",
               Samples(primary, 50)});
  m.push_back({"op_p99_us", Us(primary.Percentile(99)), "us",
               Samples(primary, 99)});
  m.push_back({"efficiency", Frac(payload_mb / ws, cpu_pct), "MBps/cpu%",
               "payload MB/s over modelled host CPU %"});
  m.push_back({"host_us_per_op",
               Frac(r.window_hs * 1e6, static_cast<double>(entries)), "us",
               "host wall per entry"});
  m.push_back({"setup_s", setup_s, "s", ""});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB", ""});
  m.push_back({"write_kops", c.write_entries / ws / 1e3, "Kops/s", ""});
  m.push_back({"put_p50_us", Us(r.put_lat.Percentile(50)), "us",
               Samples(r.put_lat, 50)});
  m.push_back({"put_p99_us", Us(r.put_lat.Percentile(99)), "us",
               Samples(r.put_lat, 99)});
  m.push_back({"put_p999_us", Us(r.put_lat.Percentile(99.9)), "us",
               Samples(r.put_lat, 99.9)});
  m.push_back({"read_kops", c.gets / ws / 1e3, "Kops/s", ""});
  m.push_back({"get_p50_us", Us(r.get_lat.Percentile(50)), "us",
               Samples(r.get_lat, 50)});
  m.push_back({"get_p99_us", Us(r.get_lat.Percentile(99)), "us",
               Samples(r.get_lat, 99)});
  m.push_back({"scan_kops", c.scan_entries / ws / 1e3, "Kops/s", ""});
  m.push_back({"scan_p99_us", Us(r.scan_lat.Percentile(99)), "us",
               Samples(r.scan_lat, 99)});
  m.push_back({"arrival_p99_us", Us(r.arrival_lat.Percentile(99)), "us",
               open ? Samples(r.arrival_lat, 99) : "closed loop"});
  m.push_back({"deadline_miss_frac",
               Frac(static_cast<double>(c.late),
                    static_cast<double>(open ? c.scheduled : c.completed)),
               "frac", "over 1000 us, or abandoned"});
  m.push_back({"error_frac",
               Frac(static_cast<double>(Failures(c)),
                    static_cast<double>(c.attempted)),
               "frac", ""});
  m.push_back({"host_cpu_us_per_op",
               Frac((r.usage1.user_s + r.usage1.sys_s - r.usage0.user_s -
                     r.usage0.sys_s) * 1e6,
                    static_cast<double>(entries)),
               "us", "process user+sys CPU per entry"});
  return m;
}

// Per-metric median over sub-runs; the note lists each sub-run's value.
std::vector<Metric> MedianOverSubruns(
    const std::vector<std::vector<Metric>>& runs) {
  std::vector<Metric> out = runs[0];
  if (runs.size() == 1) return out;
  for (size_t i = 0; i < out.size(); i++) {
    std::vector<double> v;
    std::string note = "sub-runs:";
    for (const auto& run : runs) {
      v.push_back(run[i].value);
      char buf[32];
      snprintf(buf, sizeof(buf), " %.6g", run[i].value);
      note += buf;
    }
    out[i].value = Median(v);
    out[i].note = note;
  }
  return out;
}

// Per-layer metrics over the measured window (deltas of cumulative
// counters). The core.* call latencies and host-CPU means come from the
// benchmark's own timing of each facade call.
std::vector<Metric> PerLayer(const RunResult& r) {
  const double ws = std::max(r.window_vs, 1e-9);
  const LayerSnap& a = r.s0;
  const LayerSnap& b = r.s1;
  const Counters& c = r.c;
  const Recorder& rec = *r.rec;
  const uint64_t entries = c.write_entries + c.gets + c.scan_entries;
  const double ops = std::max<double>(1, static_cast<double>(entries));
  constexpr double kMB = 1e6;
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  std::vector<Metric> m;
  auto add = [&m](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit, ""});
  };
  // core
  add("core.write.vlat_p50_us", Us(rec.vlat(SpanKind::kWrite).Percentile(50)),
      "us");
  add("core.write.vlat_p99_us", Us(rec.vlat(SpanKind::kWrite).Percentile(99)),
      "us");
  add("core.get.vlat_p50_us", Us(rec.vlat(SpanKind::kGet).Percentile(50)),
      "us");
  add("core.get.vlat_p99_us", Us(rec.vlat(SpanKind::kGet).Percentile(99)),
      "us");
  add("core.iter.new_vlat_p99_us",
      Us(rec.vlat(SpanKind::kNewIter).Percentile(99)), "us");
  add("core.iter.seek_vlat_p99_us",
      Us(rec.vlat(SpanKind::kSeek).Percentile(99)), "us");
  add("core.iter.next_vlat_mean_us", Us(rec.vlat(SpanKind::kNext).Average()),
      "us");
  add("core.write.host_cpu_ns_mean", rec.CpuNsMean(SpanKind::kWrite), "ns");
  add("core.get.host_cpu_ns_mean", rec.CpuNsMean(SpanKind::kGet), "ns");
  add("core.next.host_cpu_ns_mean", rec.CpuNsMean(SpanKind::kNext), "ns");
  const double redirected = d(a.kv.redirected_writes, b.kv.redirected_writes);
  add("core.redirect_frac",
      Frac(redirected, redirected + d(a.kv.direct_writes, b.kv.direct_writes)),
      "frac");
  add("core.redirect.batch_p99_us",
      Us(b.kv.redirect_batch_latency.Percentile(99)), "us");
  add("core.redirect.admission_rejects",
      d(a.kv.redirect_admission_rejects, b.kv.redirect_admission_rejects),
      "count");
  add("core.detector.checks", d(a.kv.detector_checks, b.kv.detector_checks),
      "count");
  add("core.rollback.count", d(a.kv.rollbacks, b.kv.rollbacks), "count");
  add("core.rollback.entries", d(a.kv.rollback_entries, b.kv.rollback_entries),
      "count");
  add("core.rollback.busy_s",
      static_cast<double>(b.kv.rollback_total_ns - a.kv.rollback_total_ns) /
          1e9,
      "s");
  const double dev_reads = d(a.kv.dev_reads, b.kv.dev_reads);
  add("core.read.dev_frac",
      Frac(dev_reads, dev_reads + d(a.kv.main_reads, b.kv.main_reads)),
      "frac");
  add("core.md.checks_per_op", d(a.kv.md_checks, b.kv.md_checks) / ops,
      "count");
  double fairness = 1;
  if (b.shard_writes.size() > 1) {
    double lo = 0, hi = 0;
    for (size_t i = 0; i < b.shard_writes.size(); i++) {
      const double w = d(a.shard_writes[i], b.shard_writes[i]);
      lo = i == 0 ? w : std::min(lo, w);
      hi = std::max(hi, w);
    }
    fairness = Frac(hi, lo);
  }
  add("core.shard.fairness_ratio", fairness, "ratio");
  // lsm
  auto clipped_s = [&](const sim::IntervalRecorder& rec_in) {
    sim::IntervalRecorder iv = rec_in;
    iv.CloseAt(b.at);
    double s = 0;
    for (const auto& x : iv.intervals()) {
      if (x.end <= a.at || x.start >= b.at) continue;
      s += ToSecs(std::min(x.end, b.at) - std::max(x.start, a.at));
    }
    return s;
  };
  add("lsm.stall_s", clipped_s(b.main.stall_regions), "s");
  add("lsm.slowdown_s", clipped_s(b.main.slowdown_regions), "s");
  int l0_max = 0, imm_max = 0;
  uint64_t pending_max = 0, imminent = 0;
  for (const Sample& s : r.samples) {
    l0_max = std::max(l0_max, s.l0_files);
    imm_max = std::max(imm_max, s.imm_memtables);
    pending_max = std::max(pending_max, s.pending_bytes);
    imminent += s.stall_imminent ? 1 : 0;
  }
  add("lsm.stall_imminent_frac",
      Frac(static_cast<double>(imminent), static_cast<double>(r.samples.size())),
      "frac");
  add("lsm.l0_files_max", l0_max, "count");
  add("lsm.imm_memtables_max", imm_max, "count");
  add("lsm.pending_compaction_mb_max", static_cast<double>(pending_max) / kMB,
      "MB");
  const double flush_b = d(a.main.flush_bytes, b.main.flush_bytes);
  const double comp_w =
      d(a.main.compaction_bytes_written, b.main.compaction_bytes_written);
  add("lsm.flush.count", d(a.main.flush_count, b.main.flush_count), "count");
  add("lsm.flush.mb", flush_b / kMB, "MB");
  add("lsm.compaction.count",
      d(a.main.compaction_count, b.main.compaction_count), "count");
  add("lsm.compaction.mb_read",
      d(a.main.compaction_bytes_read, b.main.compaction_bytes_read) / kMB,
      "MB");
  add("lsm.compaction.mb_written", comp_w / kMB, "MB");
  add("lsm.compaction.throttle_s",
      d(a.main.compaction_throttle_ns, b.main.compaction_throttle_ns) / 1e9,
      "s");
  add("lsm.write_amp",
      Frac(flush_b + comp_w,
           d(a.main.write_bytes_total, b.main.write_bytes_total)),
      "ratio");
  const double lookups = d(a.cache.hits + a.cache.misses,
                           b.cache.hits + b.cache.misses);
  add("lsm.cache.hit_rate", Frac(d(a.cache.hits, b.cache.hits), lookups),
      "frac");
  add("lsm.cache.lookups", lookups, "count");
  const double groups = static_cast<double>(b.main.group_commit_size.Count()) -
                        static_cast<double>(a.main.group_commit_size.Count());
  const double group_entries =
      b.main.group_commit_size.Average() * b.main.group_commit_size.Count() -
      a.main.group_commit_size.Average() * a.main.group_commit_size.Count();
  add("lsm.group_commit.mean", Frac(group_entries, groups), "count");
  // devlsm
  add("devlsm.puts", d(a.dev.puts, b.dev.puts), "count");
  add("devlsm.gets", d(a.dev.gets, b.dev.gets), "count");
  add("devlsm.flushes", d(a.dev.flushes, b.dev.flushes), "count");
  add("devlsm.compactions", d(a.dev.compactions, b.dev.compactions), "count");
  add("devlsm.scan_chunks", d(a.dev.scan_chunks, b.dev.scan_chunks), "count");
  add("devlsm.resident_entries_start", static_cast<double>(a.dev_resident),
      "count");
  // ssd
  const double wns = ws * 1e9;
  add("ssd.pcie.busy_frac",
      static_cast<double>(b.pcie_busy - a.pcie_busy) / wns, "frac");
  std::vector<double> stall_util;
  for (size_t i = 1; i < r.samples.size(); i++) {
    if (!r.samples[i].stall_imminent) continue;
    const double bytes = static_cast<double>(r.samples[i].pcie_bytes -
                                             r.samples[i - 1].pcie_bytes);
    const double dt = ToSecs(r.samples[i].at - r.samples[i - 1].at);
    stall_util.push_back(std::min(1.0, Frac(bytes, r.nand_bps * dt)));
  }
  add("ssd.pcie.stall_util_p50", Median(stall_util), "frac");
  add("ssd.nand.busy_frac",
      static_cast<double>(b.nand_busy - a.nand_busy) / wns / r.nand_channels,
      "frac");
  add("ssd.nand.mb_written", d(a.nand_written, b.nand_written) / kMB, "MB");
  add("ssd.nand.mb_read", d(a.nand_read, b.nand_read) / kMB, "MB");
  add("ssd.firmware.busy_frac",
      (b.firmware_busy_s - a.firmware_busy_s) / ws / r.firmware_cores, "frac");
  add("ssd.ftl.write_amp", r.ftl_write_amp, "ratio");
  add("ssd.ftl.gc_runs", d(a.ftl_gc_runs, b.ftl_gc_runs), "count");
  // sim
  add("sim.host_cpu.util", r.cpu_util, "frac");
  add("sim.arbiter.throttles", d(a.arbiter_throttles, b.arbiter_throttles),
      "count");
  add("sim.arbiter.throttle_s",
      d(a.arbiter_throttle_ns, b.arbiter_throttle_ns) / 1e9, "s");
  const double user = r.usage1.user_s - r.usage0.user_s;
  const double sys = r.usage1.sys_s - r.usage0.sys_s;
  add("sim.ctx_switches_per_op",
      d(r.usage0.ctx_switches, r.usage1.ctx_switches) / ops, "count");
  add("sim.sys_frac", Frac(sys, user + sys), "frac");
  add("sim.user_us_per_op", user * 1e6 / ops, "us");
  add("sim.vs_per_host_s", Frac(ws, r.window_hs), "ratio");
  // ndp
  add("ndp.device_jobs", d(a.planner.device_jobs, b.planner.device_jobs),
      "count");
  add("ndp.host_jobs", d(a.planner.host_jobs, b.planner.host_jobs), "count");
  add("ndp.mb_written",
      d(a.main.ndp_bytes_written, b.main.ndp_bytes_written) / kMB, "MB");
  add("ndp.fallbacks", d(a.main.ndp_fallbacks, b.main.ndp_fallbacks), "count");
  add("ndp.cores_busy_s", b.ndp_busy_s - a.ndp_busy_s, "s");
  // harness (this benchmark's generator and checks)
  add("harness.ops_attempted", static_cast<double>(c.attempted), "count");
  add("harness.ops_failed", static_cast<double>(c.failed_ops), "count");
  add("harness.readback_mismatches",
      static_cast<double>(c.readback_mismatches + c.mismatches), "count");
  add("harness.issue_late_p99_us", Us(r.issue_late.Percentile(99)), "us");
  return m;
}

// Self time per span kind: a span's duration minus the part its child spans
// cover (children of one parent are sequential calls, so they never
// overlap). Host and virtual time both.
struct SelfTime {
  uint64_t count = 0;
  double v_total = 0, v_self = 0, h_total = 0, h_self = 0;  // seconds
};

std::vector<SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<SelfTime> out(static_cast<size_t>(SpanKind::kCount));
  std::vector<double> child_v(spans.size(), 0), child_h(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    child_v[s.parent - 1] += ToSecs(s.vend - s.vstart);
    child_h[s.parent - 1] += static_cast<double>(s.hend - s.hstart) / 1e9;
  }
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    SelfTime& t = out[static_cast<size_t>(s.kind)];
    const double v = ToSecs(s.vend - s.vstart);
    const double h = static_cast<double>(s.hend - s.hstart) / 1e9;
    t.count++;
    t.v_total += v;
    t.h_total += h;
    t.v_self += v - child_v[i];
    t.h_self += h - child_h[i];
  }
  return out;
}

// Spans and counter samples, kept in memory during the run, written here at
// the end. `path` gets a one-line text header, "kvbench-spans-v1 <spans>",
// then one packed little-endian record per span: vstart, vend, hstart, hend
// (u64 ns), op, parent (u32), kind (u8, SpanName order). Setup spans come
// last with op = 0. `path`.samples.tsv gets the 100 ms counter samples.
bool WriteSpans(const std::string& path, const RunResult& r) {
  FILE* f = fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::vector<Span>& spans = r.rec->spans();
  fprintf(f, "kvbench-spans-v1 %zu\n", spans.size() + r.setup_spans.size());
  auto put = [f](const Span& s) {
    char rec[41];
    const uint64_t u64[4] = {static_cast<uint64_t>(s.vstart),
                             static_cast<uint64_t>(s.vend), s.hstart, s.hend};
    memcpy(rec, u64, sizeof(u64));
    memcpy(rec + 32, &s.op, 4);
    memcpy(rec + 36, &s.parent, 4);
    rec[40] = static_cast<char>(s.kind);
    fwrite(rec, sizeof(rec), 1, f);
  };
  for (const Span& s : spans) put(s);
  for (const Span& s : r.setup_spans) put(s);
  bool ok = fclose(f) == 0;
  f = fopen((path + ".samples.tsv").c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "vnow_ns\twrite_entries\treads\tscan_entries\tredirected\t"
             "l0_files\timm_memtables\tpending_bytes\tstall_imminent\t"
             "pcie_bytes\n");
  for (const Sample& s : r.samples) {
    fprintf(f, "%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64
               "\t%d\t%d\t%" PRIu64 "\t%d\t%" PRIu64 "\n",
            static_cast<uint64_t>(s.at), s.write_entries, s.reads,
            s.scan_entries, s.redirected, s.l0_files, s.imm_memtables,
            s.pending_bytes, s.stall_imminent ? 1 : 0, s.pcie_bytes);
  }
  return fclose(f) == 0 && ok;
}

// Names of metrics that depend only on the seed and the window (virtual
// time and modelled resources); identical across runs of one seed.
bool Modelled(const std::string& name) {
  static const char* kHost[] = {"host_us_per_op", "host_cpu_us_per_op",
                                "setup_s", "peak_rss_mb"};
  for (const char* h : kHost) {
    if (name == h) return false;
  }
  return true;
}

// ------------------------------------------------------------------- output

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  printf("%s\n", title);
  for (const Metric& m : ms) {
    printf("  %-34s %16.6g %-10s %s\n", m.name.c_str(), m.value,
           m.unit.c_str(), m.note.c_str());
  }
}

void PrintSelfTimes(const std::vector<SelfTime>& self,
                    const std::vector<Span>& setup_spans) {
  printf("span self time (traced run; seconds)\n");
  printf("  %-14s %10s %12s %12s %12s %12s\n", "span", "count", "virt_total",
         "virt_self", "host_total", "host_self");
  for (size_t k = 0; k < self.size(); k++) {
    if (self[k].count == 0) continue;
    printf("  %-14s %10" PRIu64 " %12.6f %12.6f %12.6f %12.6f\n",
           SpanName(static_cast<SpanKind>(k)), self[k].count, self[k].v_total,
           self[k].v_self, self[k].h_total, self[k].h_self);
  }
  for (const Span& s : setup_spans) {
    const double v = ToSecs(s.vend - s.vstart);
    const double h = static_cast<double>(s.hend - s.hstart) / 1e9;
    printf("  %-14s %10d %12.6f %12.6f %12.6f %12.6f\n", SpanName(s.kind), 1,
           v, v, h, h);
  }
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t n = strlen(name);
  if (strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

bool ParseInt(const std::string& s, long long lo, long long hi,
              long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = strtoll(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno != 0 || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

// Pins the process to the highest-numbered CPU it may run on; returns that
// CPU, or -1.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; i++) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  return cpu;
}

int Main(int argc, char** argv) {
  std::string workload, seed_s = "42", seconds_s = "10", trace_s = "0",
                        spans_out;
  for (int i = 1; i < argc; i++) {
    std::string v;
    if (ParseFlag(argv[i], "--workload", &v)) {
      workload = v;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      seed_s = v;
    } else if (ParseFlag(argv[i], "--seconds", &v)) {
      seconds_s = v;
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      trace_s = v;
    } else if (ParseFlag(argv[i], "--spans_out", &v)) {
      spans_out = v;
    } else {
      fprintf(stderr, "kvbench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (workload == w.name) spec = &w;
  }
  long long seed = 0, seconds = 0, trace = 0;
  if (spec == nullptr || !ParseInt(seed_s, 0, INT64_MAX / 2, &seed) ||
      !ParseInt(seconds_s, 1, 60, &seconds) ||
      !ParseInt(trace_s, 0, 1, &trace)) {
    fprintf(stderr,
            "usage: kvbench --workload=fillrandom|readwhilewriting|"
            "openloop-sharded|seekrandom --seed=N --seconds=1..60 "
            "--trace=0|1 [--spans_out=PATH]\n");
    return 2;
  }
  const int pinned = PinToOneCpu();
  if (pinned < 0) {
    fprintf(stderr, "kvbench: could not pin to one CPU\n");
    return 1;
  }
  printf("kvbench: workload %s, seed %lld, %lld s, trace %lld, pinned to "
         "cpu %d\n",
         spec->name, seed, seconds, trace, pinned);

  const uint64_t useed = static_cast<uint64_t>(seed);
  const int secs = static_cast<int>(seconds);
  std::vector<RunResult> runs;
  std::vector<double> setup_times;
  bool deterministic = true;
  std::vector<Metric> out;
  if (trace == 0) {
    // Extra set-ups (set up, then close) for the setup_s median; then each
    // sub-run sets up and measures one window. Sub-run 0 uses the seed
    // itself, so seed 42 reproduces kvaccel_dbbench's default inputs.
    for (int i = spec->subruns; i < spec->setups; i++) {
      setup_times.push_back(
          Runner(*spec, useed, secs, false).Run(false).setup_s);
    }
    std::vector<double> peak_rss;
    for (int i = 0; i < spec->subruns; i++) {
      ResetPeakRss();
      runs.push_back(
          Runner(*spec, useed + 1000003ull * i, secs, false).Run(true));
      peak_rss.push_back(PeakRssMb());
      setup_times.push_back(runs.back().setup_s);
    }
    const double setup_s = Median(setup_times);
    std::vector<std::vector<Metric>> per_run;
    for (size_t i = 0; i < runs.size(); i++) {
      per_run.push_back(EndToEnd(*spec, runs[i], setup_s, peak_rss[i]));
    }
    out = MedianOverSubruns(per_run);
    for (size_t i = 0; i < runs.size(); i++) {
      printf("sub-run %zu host s:", i);
      for (const Span& sp : runs[i].setup_spans) {
        printf(" %s %.3f", SpanName(sp.kind),
               static_cast<double>(sp.hend - sp.hstart) / 1e9);
      }
      printf(" window %.3f\n", runs[i].window_hs);
    }
    char title[96];
    snprintf(title, sizeof(title), "end-to-end metrics (median of %d %s)",
             spec->subruns, spec->subruns == 1 ? "run" : "sub-runs");
    PrintMetrics(title, out);
  } else {
    // The window of sub-run 0, untraced and then traced: both must give the
    // same modelled metrics, and their host costs give the tracing overhead.
    runs.push_back(Runner(*spec, useed, secs, false).Run(true));
    runs.push_back(Runner(*spec, useed, secs, true).Run(true));
    const RunResult& traced = runs[1];
    const std::vector<Metric> base =
        EndToEnd(*spec, runs[0], runs[0].setup_s, 0);
    const std::vector<Metric> with =
        EndToEnd(*spec, traced, traced.setup_s, 0);
    double host_base = 0, host_traced = 0;
    for (size_t i = 0; i < base.size(); i++) {
      if (base[i].name == "host_us_per_op") {
        host_base = base[i].value;
        host_traced = with[i].value;
      }
      if (Modelled(base[i].name) && base[i].value != with[i].value) {
        fprintf(stderr,
                "kvbench: traced run changed modelled metric %s: %.17g vs "
                "%.17g\n",
                base[i].name.c_str(), base[i].value, with[i].value);
        deterministic = false;
      }
    }
    out = PerLayer(traced);
    out.push_back({"trace.overhead_frac",
                   Frac(host_traced - host_base, host_base), "frac",
                   "traced over untraced host_us_per_op, minus 1"});
    out.push_back({"trace.spans",
                   static_cast<double>(traced.rec->spans().size()), "count",
                   ""});
    const std::vector<SelfTime> self = SelfTimes(traced.rec->spans());
    const SelfTime& scan = self[static_cast<size_t>(SpanKind::kScan)];
    out.push_back({"trace.scan.self_host_frac",
                   Frac(scan.h_self, scan.h_total), "frac",
                   "scan host time outside its facade calls"});
    PrintSelfTimes(self, traced.setup_spans);
    PrintMetrics("per-layer metrics (traced run)", out);
    if (!spans_out.empty() && !WriteSpans(spans_out, traced)) {
      fprintf(stderr, "kvbench: could not write %s\n", spans_out.c_str());
    }
  }

  uint64_t failed = deterministic ? 0 : 1;
  uint64_t attempted = 0;
  for (const RunResult& r : runs) {
    const Counters& c = r.c;
    failed += Failures(c);
    if (c.attempted == 0 || c.completed == 0) failed++;
    attempted += c.attempted;
    printf("checks: %" PRIu64 " attempted, %" PRIu64 " failed ops, %" PRIu64
           " wrong reads, %" PRIu64 " order violations, %" PRIu64 "/%" PRIu64
           " readback mismatches, %d checker errors, open-loop accounting "
           "%s (%" PRIu64 " scheduled = %" PRIu64 " completed + %" PRIu64
           " abandoned)\n",
           c.attempted, c.failed_ops, c.mismatches, c.order_violations,
           c.readback_mismatches, c.readback_probes, c.checker_errors,
           c.accounting_ok ? "ok" : "BROKEN", c.scheduled, c.completed,
           c.abandoned);
  }
  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); i++) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + JsonNumber(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace kvaccel::kvbench

int main(int argc, char** argv) { return kvaccel::kvbench::Main(argc, argv); }
