// Offline consistency checker + repair (DESIGN.md §9): each corruption class
// the issue names — truncated SST, bit-flipped block, MANIFEST referencing a
// missing file, orphaned Dev-LSM entry — must be detected, and Repair() must
// restore a checker-passing state with every uncorrupted key still readable.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/db_checker.h"
#include "core/kvaccel_db.h"
#include "lsm/db.h"
#include "tests/test_util.h"

namespace kvaccel {
namespace {

using check::CheckReport;
using check::DbChecker;
using test::SimWorld;
using test::TestKey;

// Writes `files` batches of `per_file` keys, each batch flushed into its own
// L0 SST. Keys are TestKey(0 .. files*per_file-1), value seed == key index.
void BuildDb(SimWorld& world, const lsm::DbOptions& opts, int files,
             int per_file) {
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
  for (int f = 0; f < files; f++) {
    for (int i = 0; i < per_file; i++) {
      int k = f * per_file + i;
      ASSERT_TRUE(db->Put({}, TestKey(k), Value::Synthetic(k, 4096)).ok());
    }
    ASSERT_TRUE(db->FlushAll().ok());
  }
  ASSERT_TRUE(db->WaitForCompactionIdle().ok());
  ASSERT_TRUE(db->Close().ok());
}

std::vector<std::string> LiveSsts(fs::SimFs& fs) {
  std::vector<std::string> out;
  for (const std::string& name : fs.GetChildren()) {
    if (name.size() == 10 && name.substr(6) == ".sst") out.push_back(name);
  }
  return out;
}

std::string ReadRaw(fs::SimFs& fs, const std::string& name) {
  std::unique_ptr<fs::RandomAccessFile> f;
  EXPECT_TRUE(fs.NewRandomAccessFile(name, &f).ok());
  std::string raw;
  EXPECT_TRUE(f->Read(0, f->physical_size(), &raw).ok());
  return raw;
}

void WriteRaw(fs::SimFs& fs, const std::string& name,
              const std::string& bytes) {
  std::unique_ptr<fs::WritableFile> f;
  ASSERT_TRUE(fs.NewWritableFile(name, &f).ok());
  ASSERT_TRUE(f->Append(Slice(bytes)).ok());
  ASSERT_TRUE(f->Close().ok());
}

// After a repair, every key must be either gone (it lived in a quarantined
// file) or intact at its original value — never wrong, never a read error.
void VerifySurvivors(SimWorld& world, const lsm::DbOptions& opts,
                     int total_keys, int min_survivors) {
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
  int found = 0;
  for (int k = 0; k < total_keys; k++) {
    Value v;
    Status s = db->Get({}, TestKey(k), &v);
    if (s.IsNotFound()) continue;
    ASSERT_TRUE(s.ok()) << TestKey(k) << ": " << s.ToString();
    EXPECT_EQ(v.seed(), static_cast<uint64_t>(k)) << TestKey(k);
    found++;
  }
  EXPECT_GE(found, min_survivors);
  ASSERT_TRUE(db->Close().ok());
}

TEST(DbCheckerTest, CleanDbPassesWithFilesActuallyExamined) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 3, 50);
    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_GT(report.sst_files_checked, 0) << report.ToString();
    EXPECT_GT(report.manifest_edits, 0);
  });
}

TEST(DbCheckerTest, TruncatedSstDetectedAndRepaired) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 4, 50);
    std::vector<std::string> ssts = LiveSsts(*world.fs);
    ASSERT_GE(ssts.size(), 2u);
    std::string victim = ssts[0];
    std::string raw = ReadRaw(*world.fs, victim);
    WriteRaw(*world.fs, victim, raw.substr(0, raw.size() / 2));

    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_FALSE(report.ok()) << "truncation not detected";

    ASSERT_TRUE(checker.Repair(&report).ok()) << report.ToString();
    EXPECT_TRUE(world.fs->FileExists(victim + ".bad")) << "not quarantined";
    CheckReport after = checker.Check();
    EXPECT_TRUE(after.ok()) << after.ToString();
    // One file of four quarantined: at least the other ~3/4 survive intact.
    VerifySurvivors(world, opts, 200, 100);
  });
}

TEST(DbCheckerTest, BitFlippedBlockDetectedAndRepaired) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 4, 50);
    std::vector<std::string> ssts = LiveSsts(*world.fs);
    ASSERT_GE(ssts.size(), 2u);
    std::string victim = ssts.back();
    std::string raw = ReadRaw(*world.fs, victim);
    raw[raw.size() / 3] ^= 0x10;  // one bit, inside a data block
    WriteRaw(*world.fs, victim, raw);

    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_FALSE(report.ok()) << "bit flip not detected";

    ASSERT_TRUE(checker.Repair(&report).ok()) << report.ToString();
    CheckReport after = checker.Check();
    EXPECT_TRUE(after.ok()) << after.ToString();
    VerifySurvivors(world, opts, 200, 100);
  });
}

TEST(DbCheckerTest, ManifestReferencingMissingSstDetectedAndRepaired) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 4, 50);
    std::vector<std::string> ssts = LiveSsts(*world.fs);
    ASSERT_GE(ssts.size(), 2u);
    ASSERT_TRUE(world.fs->DeleteFile(ssts[0]).ok());

    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_FALSE(report.ok()) << "dangling MANIFEST reference not detected";
    bool mentions_missing = false;
    for (const auto& issue : report.issues) {
      if (issue.what.find("missing") != std::string::npos) {
        mentions_missing = true;
      }
    }
    EXPECT_TRUE(mentions_missing) << report.ToString();

    ASSERT_TRUE(checker.Repair(&report).ok()) << report.ToString();
    CheckReport after = checker.Check();
    EXPECT_TRUE(after.ok()) << after.ToString();
    VerifySurvivors(world, opts, 200, 100);
  });
}

TEST(DbCheckerTest, OrphanSstIsWarningNotError) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    BuildDb(world, opts, 2, 40);
    // A stranded file with an SST name but no MANIFEST reference: a power
    // cut legally leaves these behind, so it must not fail the check.
    WriteRaw(*world.fs, "999990.sst", "not really a table");
    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_GT(report.warnings(), 0) << "orphan not surfaced at all";
  });
}

TEST(DbCheckerTest, WalMidLogCorruptionDetectedAndSalvaged) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    opts.write_buffer_size = 4 << 20;  // keep everything in the WAL
    opts.wal_sync = true;
    {
      std::unique_ptr<lsm::DB> db;
      ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
      for (int k = 0; k < 40; k++) {
        ASSERT_TRUE(db->Put({}, TestKey(k), Value::Synthetic(k, 4096)).ok());
      }
      ASSERT_TRUE(db->Close().ok());
    }
    std::string wal;
    for (const std::string& name : world.fs->GetChildren()) {
      if (name.size() == 10 && name.substr(6) == ".log") wal = name;
    }
    ASSERT_FALSE(wal.empty());
    std::string raw = ReadRaw(*world.fs, wal);
    raw[raw.size() / 2] ^= 0x01;  // mid-log: valid records follow the damage
    WriteRaw(*world.fs, wal, raw);

    DbChecker checker(opts, world.MakeDbEnv());
    CheckReport report = checker.Check();
    EXPECT_FALSE(report.ok()) << "mid-WAL corruption not detected";

    ASSERT_TRUE(checker.Repair(&report).ok()) << report.ToString();
    CheckReport after = checker.Check();
    EXPECT_TRUE(after.ok()) << after.ToString();

    // The salvaged WAL holds a clean prefix of the write order: recovered
    // keys must form a gap-free prefix at their original values.
    std::unique_ptr<lsm::DB> db;
    ASSERT_TRUE(lsm::DB::Open(opts, world.MakeDbEnv(), &db).ok());
    bool missing_seen = false;
    int found = 0;
    for (int k = 0; k < 40; k++) {
      Value v;
      Status s = db->Get({}, TestKey(k), &v);
      if (s.IsNotFound()) {
        missing_seen = true;
        continue;
      }
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_FALSE(missing_seen) << "hole in salvaged WAL prefix at " << k;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(k));
      found++;
    }
    EXPECT_GT(found, 0) << "salvage kept nothing";
    EXPECT_LT(found, 40) << "corrupt suffix was not actually dropped";
    ASSERT_TRUE(db->Close().ok());
  });
}

// ---------------------------------------------------------------------------
// Dual-interface invariant (live KvaccelDB)
// ---------------------------------------------------------------------------

TEST(DbCheckerTest, OrphanedDevLsmEntryDetectedAndDrainedByRepair) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    core::KvaccelOptions kv_opts;
    kv_opts.rollback = core::RollbackScheme::kDisabled;
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(
        core::KvaccelDB::Open(opts, kv_opts, world.MakeDbEnv(), &db).ok());
    for (int k = 0; k < 20; k++) {
      ASSERT_TRUE(db->Put({}, TestKey(k), Value::Synthetic(k, 4096)).ok());
    }
    {
      CheckReport clean;
      DbChecker::CheckDualInterface(db.get(), &clean);
      ASSERT_TRUE(clean.ok()) << clean.ToString();
    }

    // Orphaned residue: the device holds the NEWEST version of key 3 but the
    // volatile metadata table has no record of it — no read path reaches it
    // and a trusted rollback would drop it.
    uint64_t newest = db->main()->AllocateSequence(1);
    ASSERT_TRUE(
        db->dev()->Put(TestKey(3), Value::Synthetic(777, 4096), newest).ok());
    // Dangling metadata: a record whose key the device cannot resolve.
    db->metadata()->Insert(TestKey(99), newest);

    CheckReport report;
    DbChecker::CheckDualInterface(db.get(), &report);
    EXPECT_GE(report.errors(), 2) << report.ToString();

    ASSERT_TRUE(DbChecker::RepairDualInterface(db.get()).ok());
    CheckReport after;
    DbChecker::CheckDualInterface(db.get(), &after);
    EXPECT_TRUE(after.ok()) << after.ToString();
    EXPECT_TRUE(db->dev()->Empty()) << "orphaned residue not drained";
    // The orphaned newest version is now authoritative host-side.
    Value v;
    ASSERT_TRUE(db->Get({}, TestKey(3), &v).ok());
    EXPECT_EQ(v.seed(), 777u);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(DbCheckerTest, SupersededDeviceResidueIsWarningNotError) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    core::KvaccelOptions kv_opts;
    kv_opts.rollback = core::RollbackScheme::kDisabled;
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(
        core::KvaccelDB::Open(opts, kv_opts, world.MakeDbEnv(), &db).ok());
    // Device pair at host_seq 1, then a newer host write of the same key:
    // the residue is stale (3-1 path), not lost data.
    ASSERT_TRUE(
        db->dev()->Put(TestKey(5), Value::Synthetic(111, 4096), 1).ok());
    ASSERT_TRUE(db->Put({}, TestKey(5), Value::Synthetic(222, 4096)).ok());

    CheckReport report;
    DbChecker::CheckDualInterface(db.get(), &report);
    EXPECT_EQ(report.errors(), 0) << report.ToString();
    EXPECT_GT(report.warnings(), 0) << report.ToString();
    ASSERT_TRUE(db->Close().ok());
  });
}

// Pins the exact text and order of every message CheckDualInterface emits:
// metadata entries first, in Entries() order, then device-only keys in key
// order.
TEST(DbCheckerTest, DualInterfaceMessagesInOrder) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions opts = test::SmallDbOptions();
    core::KvaccelOptions kv_opts;
    kv_opts.rollback = core::RollbackScheme::kDisabled;
    std::unique_ptr<core::KvaccelDB> db;
    ASSERT_TRUE(
        core::KvaccelDB::Open(opts, kv_opts, world.MakeDbEnv(), &db).ok());
    auto main_seq = [&](int k) {
      Value v;
      lsm::SequenceNumber seq = 0;
      EXPECT_TRUE(db->main()->GetWithSequence({}, TestKey(k), &v, &seq).ok());
      return seq;
    };
    auto u64 = [](uint64_t v) { return std::to_string(v); };

    // Host writes: key 3 is then claimed by both paths; key 5 is written
    // after its device copy, which is therefore superseded residue.
    ASSERT_TRUE(db->dev()->Put(TestKey(5), Value::Synthetic(50, 64), 1).ok());
    ASSERT_TRUE(db->Put({}, TestKey(3), Value::Synthetic(30, 64)).ok());
    ASSERT_TRUE(db->Put({}, TestKey(5), Value::Synthetic(51, 64)).ok());
    const uint64_t main3 = main_seq(3);
    const uint64_t main5 = main_seq(5);
    ASSERT_GT(main5, 1u);

    // Metadata side: key 1 has no device copy, key 2's record disagrees
    // with its device copy, key 3's record is not newer than the host's.
    const uint64_t seq1 = db->main()->AllocateSequence(1);
    const uint64_t seq2 = db->main()->AllocateSequence(1);
    db->metadata()->Insert(TestKey(1), seq1);
    ASSERT_TRUE(
        db->dev()->Put(TestKey(2), Value::Synthetic(20, 64), seq2).ok());
    db->metadata()->Insert(TestKey(2), seq2 + 7);
    ASSERT_TRUE(db->dev()->Put(TestKey(3), Value::Synthetic(31, 64), main3)
                    .ok());
    db->metadata()->Insert(TestKey(3), main3);
    // Device-only: key 4 holds the newest version, key 6 is unversioned.
    const uint64_t seq4 = db->main()->AllocateSequence(1);
    ASSERT_TRUE(
        db->dev()->Put(TestKey(4), Value::Synthetic(40, 64), seq4).ok());
    ASSERT_TRUE(db->dev()->Put(TestKey(6), Value::Synthetic(60, 64)).ok());

    std::vector<std::string> want_errors;
    for (const auto& [key, seq] : db->metadata()->Entries()) {
      if (key == TestKey(1)) {
        want_errors.push_back("metadata entry not resolvable in Dev-LSM: " +
                              key);
      } else if (key == TestKey(2)) {
        want_errors.push_back("metadata seq " + u64(seq2 + 7) +
                              " != device host seq " + u64(seq2) + " for " +
                              key);
      } else if (key == TestKey(3)) {
        want_errors.push_back("key authoritative in both paths: " + key +
                              " (main seq " + u64(main3) + " >= md seq " +
                              u64(main3) + ")");
      } else {
        ADD_FAILURE() << "unexpected metadata entry " << key;
      }
    }
    ASSERT_EQ(want_errors.size(), 3u);
    want_errors.push_back("orphaned device entry holds newest version of " +
                          TestKey(4) + " (host seq " + u64(seq4) +
                          " > main seq 0) with no metadata record");
    const std::vector<std::string> want_warnings = {
        "superseded device residue: " + TestKey(5),
        "unversioned device entry without metadata: " + TestKey(6)};

    CheckReport report;
    DbChecker::CheckDualInterface(db.get(), &report);
    std::vector<std::string> errors, warnings;
    for (const auto& issue : report.issues) {
      (issue.severity == check::CheckIssue::Severity::kError ? errors
                                                             : warnings)
          .push_back(issue.what);
    }
    EXPECT_EQ(errors, want_errors);
    EXPECT_EQ(warnings, want_warnings);
    // Device-only messages follow every metadata message.
    ASSERT_EQ(report.issues.size(), 6u);
    EXPECT_EQ(report.issues[2].what, want_errors[2]);
    EXPECT_EQ(report.issues[3].what, want_errors[3]);
    EXPECT_EQ(report.issues[4].what, want_warnings[0]);
    EXPECT_EQ(report.issues[5].what, want_warnings[1]);
    ASSERT_TRUE(db->Close().ok());
  });
}

}  // namespace
}  // namespace kvaccel

