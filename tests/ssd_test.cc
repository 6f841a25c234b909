#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "harness/presets.h"
#include "sim/sim_env.h"
#include "ssd/config.h"
#include "ssd/ftl.h"
#include "ssd/hybrid_ssd.h"
#include "ssd/nand_flash.h"
#include "ssd/nvme.h"

namespace kvaccel::ssd {
namespace {

SsdConfig SmallConfig() {
  SsdConfig c;
  c.capacity_bytes = 64ull << 20;  // 64 MiB
  c.pages_per_block = 16;
  return c;
}

TEST(NandFlashTest, SingleStreamReachesAggregateBandwidth) {
  sim::SimEnv env;
  SsdConfig c = SmallConfig();
  NandFlash nand(&env, c);
  Nanos done = 0;
  env.Spawn("w", [&] { done = nand.Write(63'000'000); });  // 63 MB
  env.Run();
  // 63 MB at 630 MB/s = 100 ms (+ fixed program latency).
  EXPECT_NEAR(ToSecs(done), 0.1, 0.002);
  EXPECT_EQ(nand.bytes_written(), 63'000'000u);
}

TEST(NandFlashTest, ConcurrentStreamsShareBandwidth) {
  sim::SimEnv env;
  NandFlash nand(&env, SmallConfig());
  Nanos d1 = 0, d2 = 0;
  env.Spawn("a", [&] { d1 = nand.Write(31'500'000); });
  env.Spawn("b", [&] { d2 = nand.Write(31'500'000); });
  env.Run();
  // Both share the 630 MB/s: 63 MB total takes ~100 ms.
  EXPECT_NEAR(ToSecs(std::max(d1, d2)), 0.1, 0.005);
}

TEST(NandFlashTest, ReadLatencyApplied) {
  sim::SimEnv env;
  SsdConfig c = SmallConfig();
  NandFlash nand(&env, c);
  Nanos done = 0;
  env.Spawn("r", [&] { done = nand.Read(4096); });
  env.Run();
  // One page: transfer (~26 us at 157.5 MB/s/channel) + 45 us access.
  EXPECT_GT(done, FromMicros(45));
  EXPECT_LT(done, FromMicros(120));
}

TEST(FtlTest, WriteMapsAndOverwriteInvalidates) {
  Ftl::Options opt;
  opt.logical_pages = 1024;
  opt.pages_per_block = 16;
  Ftl ftl(opt, nullptr);
  EXPECT_FALSE(ftl.IsMapped(5));
  ASSERT_TRUE(ftl.Write(0, 64).ok());
  EXPECT_TRUE(ftl.IsMapped(5));
  EXPECT_EQ(ftl.valid_pages(), 64u);
  ASSERT_TRUE(ftl.Write(0, 64).ok());  // overwrite
  EXPECT_EQ(ftl.valid_pages(), 64u);   // still 64 valid
  EXPECT_DOUBLE_EQ(ftl.write_amplification(), 1.0);  // no GC yet
}

TEST(FtlTest, TrimUnmaps) {
  Ftl::Options opt;
  opt.logical_pages = 256;
  opt.pages_per_block = 16;
  Ftl ftl(opt, nullptr);
  ASSERT_TRUE(ftl.Write(10, 20).ok());
  ASSERT_TRUE(ftl.Trim(10, 10).ok());
  EXPECT_FALSE(ftl.IsMapped(10));
  EXPECT_TRUE(ftl.IsMapped(25));
  EXPECT_EQ(ftl.valid_pages(), 10u);
  // Trimming unmapped pages is harmless.
  ASSERT_TRUE(ftl.Trim(0, 256).ok());
  EXPECT_EQ(ftl.valid_pages(), 0u);
}

TEST(FtlTest, OutOfRangeRejected) {
  Ftl::Options opt;
  opt.logical_pages = 64;
  opt.pages_per_block = 16;
  Ftl ftl(opt, nullptr);
  EXPECT_TRUE(ftl.Write(60, 10).IsInvalidArgument());
  EXPECT_TRUE(ftl.Trim(64, 1).IsInvalidArgument());
}

TEST(FtlTest, GcReclaimsOverwrittenSpace) {
  Ftl::Options opt;
  opt.logical_pages = 256;
  opt.pages_per_block = 16;
  opt.overprovision = 0.10;
  uint64_t gc_pages = 0, gc_blocks = 0;
  Ftl ftl(opt, [&](uint64_t p, uint64_t b) {
    gc_pages += p;
    gc_blocks += b;
  });
  // Overwrite the same range many times: physical blocks fill with invalid
  // pages; GC must keep reclaiming them indefinitely.
  for (int round = 0; round < 50; round++) {
    ASSERT_TRUE(ftl.Write(0, 128).ok()) << "round " << round;
  }
  EXPECT_EQ(ftl.valid_pages(), 128u);
  EXPECT_GT(ftl.gc_runs(), 0u);
  EXPECT_GT(ftl.erased_blocks(), 0u);
  EXPECT_EQ(gc_blocks, ftl.erased_blocks());
  EXPECT_GE(ftl.write_amplification(), 1.0);
}

TEST(FtlTest, FullDeviceReportsNoSpace) {
  Ftl::Options opt;
  opt.logical_pages = 64;
  opt.pages_per_block = 16;
  opt.overprovision = 0.0;  // nothing spare
  Ftl ftl(opt, nullptr);
  // Fill every logical page: valid data occupies all physical blocks, GC has
  // nothing reclaimable, further writes must eventually fail.
  Status s = ftl.Write(0, 64);
  ASSERT_TRUE(s.ok());
  s = ftl.Write(0, 64);  // rewrite needs headroom that 0% OP can't provide
  EXPECT_TRUE(s.IsNoSpace() || s.ok());
}

// The tables encode ppn + 1 and lpn + 2, so page 0 on both sides must stay
// distinguishable from "unmapped" and "free".
TEST(FtlTest, FirstWriteMapsLpnZeroToPpnZero) {
  Ftl::Options opt;
  opt.logical_pages = 64;
  opt.pages_per_block = 4;
  Ftl ftl(opt, nullptr);
  EXPECT_FALSE(ftl.IsMapped(0));
  ASSERT_TRUE(ftl.Write(0, 1).ok());  // lpn 0 -> ppn 0
  EXPECT_TRUE(ftl.IsMapped(0));
  EXPECT_FALSE(ftl.IsMapped(1));
  EXPECT_EQ(ftl.valid_pages(), 1u);
  ASSERT_TRUE(ftl.Write(0, 1).ok());  // ppn 0 goes stale, lpn 0 -> ppn 1
  EXPECT_TRUE(ftl.IsMapped(0));
  EXPECT_EQ(ftl.valid_pages(), 1u);
  ASSERT_TRUE(ftl.Trim(0, 1).ok());
  EXPECT_FALSE(ftl.IsMapped(0));
  EXPECT_EQ(ftl.valid_pages(), 0u);
  ASSERT_TRUE(ftl.Trim(0, 1).ok());  // already unmapped
  EXPECT_EQ(ftl.valid_pages(), 0u);
  ASSERT_TRUE(ftl.Write(0, 1).ok());
  EXPECT_TRUE(ftl.IsMapped(0));
  EXPECT_EQ(ftl.valid_pages(), 1u);
}

// 8 logical pages in 4 physical blocks of 4 pages (the 2-block floor of
// spare), GC below 2 free blocks. After Write(0, 8) fills blocks 0 and 1,
// overwriting lpns 1..6 forces GC: block 0 holds only lpn 0 and is the first
// victim, block 1 then holds lpns 5..7 and is the second, so both the first
// and the last lpn are relocated, and block 0 is reused from ppn 0 on.
TEST(FtlTest, GcRelocatesFirstAndLastLpn) {
  Ftl::Options opt;
  opt.logical_pages = 8;
  opt.pages_per_block = 4;
  opt.overprovision = 0.0;
  uint64_t gc_pages = 0, gc_blocks = 0;
  Ftl ftl(opt, [&](uint64_t p, uint64_t b) {
    gc_pages += p;
    gc_blocks += b;
  });
  EXPECT_EQ(ftl.physical_blocks(), 4u);
  EXPECT_EQ(ftl.free_blocks(), 4u);
  ASSERT_TRUE(ftl.Write(0, 8).ok());
  EXPECT_EQ(ftl.free_blocks(), 2u);
  EXPECT_EQ(ftl.valid_pages(), 8u);
  EXPECT_EQ(ftl.gc_runs(), 0u);
  ASSERT_TRUE(ftl.Write(1, 6).ok());
  // The first two runs move lpn 0, then lpns 5..7; pinned totals follow.
  EXPECT_EQ(ftl.gc_runs(), 5u);
  EXPECT_EQ(ftl.relocated_pages(), 15u);
  EXPECT_EQ(ftl.erased_blocks(), 5u);
  EXPECT_EQ(ftl.free_blocks(), 1u);
  EXPECT_EQ(gc_pages, ftl.relocated_pages());
  EXPECT_EQ(gc_blocks, ftl.erased_blocks());
  EXPECT_EQ(ftl.valid_pages(), 8u);
  for (uint64_t l = 0; l < 8; l++) EXPECT_TRUE(ftl.IsMapped(l)) << l;
  EXPECT_DOUBLE_EQ(ftl.write_amplification(),
                   static_cast<double>(14 + ftl.relocated_pages()) / 14.0);

  // The relocated mappings must point at live pages: trimming them updates
  // the valid counts, and the freed space is reusable.
  ASSERT_TRUE(ftl.Trim(0, 1).ok());
  ASSERT_TRUE(ftl.Trim(7, 1).ok());
  EXPECT_FALSE(ftl.IsMapped(0));
  EXPECT_FALSE(ftl.IsMapped(7));
  EXPECT_EQ(ftl.valid_pages(), 6u);
  for (int round = 0; round < 20; round++) {
    ASSERT_TRUE(ftl.Write(0, 8).ok()) << "round " << round;
    ASSERT_TRUE(ftl.Trim(0, 1).ok());
    ASSERT_TRUE(ftl.Trim(7, 1).ok());
  }
  EXPECT_EQ(ftl.valid_pages(), 6u);
  EXPECT_EQ(ftl.gc_runs(), 104u);
  EXPECT_EQ(ftl.relocated_pages(), 251u);
  EXPECT_EQ(ftl.free_blocks(), 1u);
  EXPECT_EQ(gc_pages, ftl.relocated_pages());
  EXPECT_EQ(gc_blocks, ftl.erased_blocks());
}

// Resident set of this process in bytes (VmRSS), or 0 if unavailable.
uint64_t VmRssBytes() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (sscanf(line, "VmRSS: %" SCNu64 " kB", &kb) == 1) break;
  }
  fclose(f);
  return kb * 1024;
}

// The FTL tables of the paper's 256 GB device (a 192 GB block region, about
// 830 MB of page tables) are committed only as pages are written, so
// building the device costs almost no resident memory.
TEST(HybridSsdTest, PaperScaleConstructionStaysSmall) {
  const uint64_t before = VmRssBytes();
  ASSERT_GT(before, 0u);
  sim::SimEnv env;
  HybridSsd ssd(&env, harness::PaperSsdConfig(1.0));
  const uint64_t after = VmRssBytes();
  EXPECT_EQ(ssd.BlockCapacitySectors(0), (192ull << 30) / 4096);
  EXPECT_LT(after - std::min(after, before), 64ull << 20)
      << "constructing the device raised VmRSS by "
      << (after - std::min(after, before)) / (1 << 20) << " MB";
}

TEST(HybridSsdTest, BlockIoMovesPcieAndNandTraffic) {
  sim::SimEnv env;
  HybridSsd ssd(&env, SmallConfig());
  env.Spawn("w", [&] {
    ASSERT_TRUE(ssd.BlockWrite(0, 0, 256).ok());  // 1 MiB
    ASSERT_TRUE(ssd.BlockRead(0, 0, 256).ok());
  });
  env.Run();
  EXPECT_EQ(ssd.pcie().total_bytes(), 2u << 20);
  EXPECT_EQ(ssd.nand().bytes_written(), 1u << 20);
  EXPECT_EQ(ssd.nand().bytes_read(), 1u << 20);
}

TEST(HybridSsdTest, DisaggregationSplitsCapacity) {
  sim::SimEnv env;
  SsdConfig c = SmallConfig();
  c.block_region_fraction = 0.75;
  HybridSsd ssd(&env, c);
  uint64_t total = c.total_pages();
  EXPECT_EQ(ssd.BlockCapacitySectors(0), total * 3 / 4);
  EXPECT_EQ(ssd.KvCapacityPages(0), total - total * 3 / 4);
}

TEST(HybridSsdTest, KvQuotaEnforced) {
  sim::SimEnv env;
  HybridSsd ssd(&env, SmallConfig());
  uint64_t quota = ssd.KvCapacityPages(0);
  EXPECT_TRUE(ssd.KvAllocPages(0, quota).ok());
  EXPECT_TRUE(ssd.KvAllocPages(0, 1).IsNoSpace());
  ssd.KvFreePages(0, quota / 2);
  EXPECT_EQ(ssd.KvUsedPages(0), quota - quota / 2);
  EXPECT_TRUE(ssd.KvAllocPages(0, 1).ok());
}

TEST(HybridSsdTest, NamespacesAreIsolated) {
  sim::SimEnv env;
  SsdConfig c = SmallConfig();
  c.num_namespaces = 2;
  HybridSsd ssd(&env, c);
  EXPECT_EQ(ssd.BlockCapacitySectors(0), ssd.BlockCapacitySectors(1));
  // Fill namespace 0's KV quota; namespace 1 is unaffected.
  ASSERT_TRUE(ssd.KvAllocPages(0, ssd.KvCapacityPages(0)).ok());
  EXPECT_TRUE(ssd.KvAllocPages(0, 1).IsNoSpace());
  EXPECT_TRUE(ssd.KvAllocPages(1, 1).ok());
  EXPECT_TRUE(ssd.BlockWrite(2, 0, 1).IsInvalidArgument());
}

TEST(HybridSsdTest, CommandTraceRecords) {
  sim::SimEnv env;
  HybridSsd ssd(&env, SmallConfig());
  env.Spawn("w", [&] {
    ssd.BlockWrite(0, 0, 4);
    ssd.BlockRead(0, 0, 4);
    ssd.BlockFlush(0);
  });
  env.Run();
  EXPECT_EQ(ssd.trace().CountOf(nvme::Opcode::kWrite), 1u);
  EXPECT_EQ(ssd.trace().CountOf(nvme::Opcode::kRead), 1u);
  EXPECT_EQ(ssd.trace().CountOf(nvme::Opcode::kFlush), 1u);
  EXPECT_EQ(ssd.trace().total_count(), 3u);
}

TEST(HybridSsdTest, FirmwareIsSlowerThanHost) {
  sim::SimEnv env;
  SsdConfig c = SmallConfig();
  HybridSsd ssd(&env, c);
  Nanos done = 0;
  env.Spawn("fw", [&] {
    ssd.firmware()->Consume(1e6);  // 1 ms of nominal work
    done = env.Now();
  });
  env.Run();
  EXPECT_NEAR(static_cast<double>(done), 1e6 / c.firmware_speed, 1e3);
}

TEST(NvmeTest, OpcodeNames) {
  EXPECT_STREQ(nvme::OpcodeName(nvme::Opcode::kKvStore), "KV_STORE");
  EXPECT_STREQ(nvme::OpcodeName(nvme::Opcode::kKvBulkScan), "KV_BULK_SCAN");
  EXPECT_STREQ(nvme::OpcodeName(nvme::Opcode::kRead), "READ");
}

}  // namespace
}  // namespace kvaccel::ssd
