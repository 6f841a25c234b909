// Page-mapped Flash Translation Layer with greedy garbage collection.
//
// The FTL tracks the logical→physical page mapping, per-block valid counts,
// and a free-block pool with overprovisioned headroom. Overwrites invalidate
// the previous physical page; when the free pool drops below the GC
// threshold, greedy victim selection relocates the fewest valid pages. The
// cost of GC data movement is charged to the NAND model through a caller-
// provided callback, so garbage collection competes for the same device
// bandwidth as everything else (paper §V-D: both interfaces share the FTL
// mechanisms of a conventional SSD).
//
// Host memory scales with the pages a workload touches, not with the
// device's nominal capacity. The two per-page tables are encoded so that an
// all-zero entry means "nothing here":
//   - map_[lpn]:  0 = unmapped, otherwise ppn + 1;
//   - rmap_[ppn]: 0 = free (erased), 1 = stale, otherwise lpn + 2 (live).
// Both live in a ZeroPageTable: an anonymous mapping whose pages are
// committed on first touch (a write; reads of untouched pages see the
// kernel's shared zero page). Building an Ftl therefore costs neither time
// nor resident memory in proportion to its capacity. The free pool is the
// never-used blocks above a frontier (handed out in block order) followed by
// erased blocks in the order GC reclaimed them — the same FIFO order as one
// queue seeded with every block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"

namespace kvaccel::ssd {

// Fixed-size array of uint64_t that reads as all zeros until written, with
// host pages committed only when first written. Not copyable.
class ZeroPageTable {
 public:
  explicit ZeroPageTable(size_t size);
  ~ZeroPageTable();
  ZeroPageTable(const ZeroPageTable&) = delete;
  ZeroPageTable& operator=(const ZeroPageTable&) = delete;

  uint64_t& operator[](size_t i) { return data_[i]; }
  uint64_t operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }

 private:
  uint64_t* data_;
  size_t size_;
};

class Ftl {
 public:
  struct Options {
    uint64_t logical_pages = 0;
    uint64_t pages_per_block = 256;
    double overprovision = 0.07;
    // Run GC when free blocks fall below this fraction of physical blocks.
    double gc_free_threshold = 0.08;
  };

  // Charged whenever GC moves data: (relocated_pages, erased_blocks).
  using GcIoFn = std::function<void(uint64_t, uint64_t)>;

  Ftl(const Options& options, GcIoFn gc_io);

  // Maps `count` logical pages starting at `lpn` to fresh physical pages,
  // invalidating any previous mapping. Fails with NoSpace when the device is
  // genuinely full (no reclaimable invalid pages).
  Status Write(uint64_t lpn, uint64_t count);

  // Unmaps (invalidates) the range; harmless on unmapped pages.
  Status Trim(uint64_t lpn, uint64_t count);

  bool IsMapped(uint64_t lpn) const;

  uint64_t logical_pages() const { return options_.logical_pages; }
  uint64_t valid_pages() const { return valid_pages_; }
  uint64_t free_blocks() const {
    return physical_blocks_ - fresh_next_ + erased_blocks_fifo_.size();
  }
  uint64_t physical_blocks() const { return physical_blocks_; }
  uint64_t relocated_pages() const { return relocated_pages_; }
  uint64_t erased_blocks() const { return erased_blocks_; }
  uint64_t gc_runs() const { return gc_runs_; }

  // Write amplification observed so far: (host + GC writes) / host writes.
  double write_amplification() const {
    if (host_written_pages_ == 0) return 1.0;
    return static_cast<double>(host_written_pages_ + relocated_pages_) /
           static_cast<double>(host_written_pages_);
  }

 private:
  static constexpr uint64_t kNoPage = UINT64_MAX;
  // rmap_ entries below kRmapLiveBase are not live pages.
  static constexpr uint64_t kRmapFree = 0;
  static constexpr uint64_t kRmapStale = 1;
  static constexpr uint64_t kRmapLiveBase = 2;

  // Allocates one physical page from the active block (sealing and pulling
  // from the free pool as needed). Returns kNoPage if out of space.
  uint64_t AllocPage();
  // Marks the live page `ppn` stale.
  void InvalidatePhysical(uint64_t ppn);
  void MaybeGc();
  bool GcOnce();

  Options options_;
  GcIoFn gc_io_;
  uint64_t physical_blocks_;
  ZeroPageTable map_;   // lpn -> ppn + 1, 0 = unmapped
  ZeroPageTable rmap_;  // ppn -> lpn + 2, kRmapFree or kRmapStale
  std::vector<uint32_t> block_valid_;
  // Erased by GC and not yet reused; only meaningful below fresh_next_.
  std::vector<uint8_t> block_is_free_;
  // Blocks [fresh_next_, physical_blocks_) have never been allocated.
  uint64_t fresh_next_ = 0;
  std::deque<uint64_t> erased_blocks_fifo_;
  uint64_t active_block_ = kNoPage;
  uint64_t active_next_page_ = 0;
  uint64_t valid_pages_ = 0;
  uint64_t host_written_pages_ = 0;
  uint64_t relocated_pages_ = 0;
  uint64_t erased_blocks_ = 0;
  uint64_t gc_runs_ = 0;
};

}  // namespace kvaccel::ssd
