#include "ssd/ftl.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <new>

namespace kvaccel::ssd {

namespace {

// mmap rejects empty mappings, so an empty table still maps one entry.
size_t MappedBytes(size_t size) {
  return std::max<size_t>(size, 1) * sizeof(uint64_t);
}

uint64_t PhysicalBlocks(const Ftl::Options& options) {
  assert(options.logical_pages > 0);
  assert(options.pages_per_block > 0);
  uint64_t logical_blocks =
      (options.logical_pages + options.pages_per_block - 1) /
      options.pages_per_block;
  uint64_t physical = static_cast<uint64_t>(std::ceil(
      static_cast<double>(logical_blocks) * (1.0 + options.overprovision)));
  return std::max(physical, logical_blocks + 2);
}

}  // namespace

ZeroPageTable::ZeroPageTable(size_t size) : size_(size) {
  // MAP_NORESERVE: the table is sized for the whole device, but only the
  // pages the simulation writes are ever committed.
  void* m = mmap(nullptr, MappedBytes(size), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (m == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<uint64_t*>(m);
}

ZeroPageTable::~ZeroPageTable() { munmap(data_, MappedBytes(size_)); }

Ftl::Ftl(const Options& options, GcIoFn gc_io)
    : options_(options),
      gc_io_(std::move(gc_io)),
      physical_blocks_(PhysicalBlocks(options)),
      map_(options.logical_pages),
      rmap_(physical_blocks_ * options.pages_per_block),
      block_valid_(physical_blocks_, 0),
      block_is_free_(physical_blocks_, 0) {}

uint64_t Ftl::AllocPage() {
  if (active_block_ == kNoPage ||
      active_next_page_ == options_.pages_per_block) {
    if (fresh_next_ < physical_blocks_) {
      active_block_ = fresh_next_++;
    } else if (!erased_blocks_fifo_.empty()) {
      active_block_ = erased_blocks_fifo_.front();
      erased_blocks_fifo_.pop_front();
      block_is_free_[active_block_] = 0;
    } else {
      return kNoPage;
    }
    active_next_page_ = 0;
  }
  return active_block_ * options_.pages_per_block + active_next_page_++;
}

void Ftl::InvalidatePhysical(uint64_t ppn) {
  assert(rmap_[ppn] >= kRmapLiveBase);
  rmap_[ppn] = kRmapStale;
  uint64_t block = ppn / options_.pages_per_block;
  assert(block_valid_[block] > 0);
  block_valid_[block]--;
}

Status Ftl::Write(uint64_t lpn, uint64_t count) {
  if (lpn + count > options_.logical_pages) {
    return Status::InvalidArgument("FTL write beyond logical capacity");
  }
  for (uint64_t i = 0; i < count; i++) {
    uint64_t l = lpn + i;
    MaybeGc();
    uint64_t ppn = AllocPage();
    if (ppn == kNoPage) return Status::NoSpace("FTL out of NAND blocks");
    if (map_[l] != 0) {
      InvalidatePhysical(map_[l] - 1);
      valid_pages_--;
    }
    map_[l] = ppn + 1;
    rmap_[ppn] = l + kRmapLiveBase;
    block_valid_[ppn / options_.pages_per_block]++;
    valid_pages_++;
    host_written_pages_++;
  }
  return Status::OK();
}

Status Ftl::Trim(uint64_t lpn, uint64_t count) {
  if (lpn + count > options_.logical_pages) {
    return Status::InvalidArgument("FTL trim beyond logical capacity");
  }
  for (uint64_t i = 0; i < count; i++) {
    uint64_t l = lpn + i;
    if (map_[l] != 0) {
      InvalidatePhysical(map_[l] - 1);
      map_[l] = 0;
      valid_pages_--;
    }
  }
  return Status::OK();
}

bool Ftl::IsMapped(uint64_t lpn) const {
  return lpn < map_.size() && map_[lpn] != 0;
}

void Ftl::MaybeGc() {
  uint64_t threshold = std::max<uint64_t>(
      2, static_cast<uint64_t>(static_cast<double>(physical_blocks_) *
                               options_.gc_free_threshold));
  while (free_blocks() < threshold) {
    if (!GcOnce()) break;
  }
}

bool Ftl::GcOnce() {
  // Greedy victim: sealed block with the fewest valid pages. Blocks that are
  // entirely valid reclaim nothing — if only those remain, GC cannot help.
  // Blocks at or above the fresh frontier were never used, so are free.
  uint64_t victim = kNoPage;
  uint32_t best_valid = static_cast<uint32_t>(options_.pages_per_block);
  for (uint64_t b = 0; b < fresh_next_; b++) {
    if (b == active_block_ || block_is_free_[b]) continue;
    if (block_valid_[b] < best_valid) {
      best_valid = block_valid_[b];
      victim = b;
    }
  }
  if (victim == kNoPage || best_valid == options_.pages_per_block) {
    return false;
  }
  gc_runs_++;
  uint64_t moved = 0;
  for (uint64_t p = 0; p < options_.pages_per_block; p++) {
    uint64_t ppn = victim * options_.pages_per_block + p;
    if (rmap_[ppn] < kRmapLiveBase) continue;
    uint64_t lpn = rmap_[ppn] - kRmapLiveBase;
    uint64_t dst = AllocPage();
    if (dst == kNoPage) return false;  // shouldn't happen mid-GC
    rmap_[ppn] = kRmapStale;
    block_valid_[victim]--;
    map_[lpn] = dst + 1;
    rmap_[dst] = lpn + kRmapLiveBase;
    block_valid_[dst / options_.pages_per_block]++;
    moved++;
  }
  // Erase and return to the pool.
  for (uint64_t p = 0; p < options_.pages_per_block; p++) {
    rmap_[victim * options_.pages_per_block + p] = kRmapFree;
  }
  assert(block_valid_[victim] == 0);
  erased_blocks_fifo_.push_back(victim);
  block_is_free_[victim] = 1;
  relocated_pages_ += moved;
  erased_blocks_++;
  if (gc_io_) gc_io_(moved, 1);
  return true;
}

}  // namespace kvaccel::ssd
