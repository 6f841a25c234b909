#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "core/kvaccel_db.h"
#include "core/metadata_manager.h"
#include "tests/test_util.h"

namespace kvaccel::core {
namespace {

using test::SimWorld;
using test::TestKey;

KvaccelOptions SmallKvOptions() {
  KvaccelOptions o;
  o.dev.memtable_bytes = 128 << 10;
  o.dev.dma_chunk = 64 << 10;
  o.rollback = RollbackScheme::kDisabled;  // tests trigger rollback manually
  return o;
}

TEST(KvaccelDbTest, NormalPathPutGet) {
  SimWorld world;
  world.Run([&] {
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(KvaccelDB::Open(test::SmallDbOptions(), SmallKvOptions(),
                                world.MakeDbEnv(), &db)
                    .ok());
    ASSERT_TRUE(db->Put({}, "k", Value::Inline("v")).ok());
    Value v;
    ASSERT_TRUE(db->Get({}, "k", &v).ok());
    EXPECT_EQ(v.Materialize(), "v");
    EXPECT_EQ(db->kv_stats().direct_writes, 1u);
    EXPECT_EQ(db->kv_stats().redirected_writes, 0u);
    ASSERT_TRUE(db->Close().ok());
  });
}

// Forces the redirection path by stuffing Main-LSM until the Detector sees
// an imminent stall, then checks read-your-writes across both paths.
TEST(KvaccelDbTest, RedirectionDuringStallPreservesReads) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);  // react fast at test scale
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());

    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i % 500),
                          Value::Synthetic(static_cast<uint64_t>(i), 4096))
                      .ok());
    }
    // Sustained pressure must have redirected part of the stream.
    EXPECT_GT(db->kv_stats().redirected_writes, 0u);
    EXPECT_GT(db->kv_stats().direct_writes, 0u);
    EXPECT_GT(db->kv_stats().detector_checks, 0u);

    // Read-your-writes: the newest version of every key, wherever it lives.
    Value v;
    for (int k = 0; k < 500; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(2500 + k)) << k;
    }
    EXPECT_GT(db->kv_stats().dev_reads + db->kv_stats().main_reads, 0u);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, RollbackDrainsDeviceAndPreservesData) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(
          db->Put({}, TestKey(i % 500), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_GT(db->kv_stats().redirected_writes, 0u);
    ASSERT_FALSE(db->dev()->Empty());

    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    ASSERT_TRUE(db->RollbackNow().ok());
    EXPECT_TRUE(db->dev()->Empty());
    EXPECT_EQ(db->metadata()->Size(), 0u);
    EXPECT_EQ(db->kv_stats().rollbacks, 1u);
    EXPECT_GT(db->kv_stats().rollback_entries, 0u);

    // All newest versions now come from Main-LSM.
    Value v;
    for (int k = 0; k < 500; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(2500 + k)) << k;
    }
    EXPECT_EQ(db->kv_stats().dev_reads, 0u);  // reads after rollback: main
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, DeleteRedirectedAsTombstone) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    // Seed some stable data.
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    // Build stall pressure, then delete seeded keys mid-pressure.
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(
          db->Put({}, TestKey(1000 + i), Value::Synthetic(i, 4096)).ok());
      if (i % 40 == 0 && i / 40 < 100) {
        ASSERT_TRUE(db->Delete({}, TestKey(i / 40)).ok());
      }
    }
    // Deleted keys are gone regardless of which path served the delete.
    Value v;
    for (int k = 0; k < 50; k++) {
      EXPECT_TRUE(db->Get({}, TestKey(k), &v).IsNotFound()) << k;
    }
    // And stay gone after rollback.
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    ASSERT_TRUE(db->RollbackNow().ok());
    for (int k = 0; k < 50; k++) {
      EXPECT_TRUE(db->Get({}, TestKey(k), &v).IsNotFound()) << k;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, OverwriteOnMainPathInvalidatesDevCopy) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    // Build pressure so some "hot" keys get redirected.
    for (int i = 0; i < 2500; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i % 300), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_GT(db->metadata()->Size(), 0u);
    // Let pressure subside, then overwrite everything on the normal path.
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    db->detector()->PollNow();
    for (int k = 0; k < 300; k++) {
      ASSERT_TRUE(
          db->Put({}, TestKey(k), Value::Synthetic(100000 + k, 64)).ok());
    }
    // Paper write path (3-1): records now point at Main-LSM.
    Value v;
    for (int k = 0; k < 300; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(100000 + k)) << k;
    }
    // Rollback must NOT resurrect the stale device copies.
    ASSERT_TRUE(db->RollbackNow().ok());
    for (int k = 0; k < 300; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), static_cast<uint64_t>(100000 + k)) << k;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, HybridIteratorMergesBothSides) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    KvaccelOptions kv_opts = SmallKvOptions();
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    // Even keys via the normal path.
    for (int i = 0; i < 100; i += 2) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }
    // Odd keys planted directly in the Dev-LSM (as a redirection would).
    for (int i = 1; i < 100; i += 2) {
      ASSERT_TRUE(db->dev()->Put(TestKey(i), Value::Synthetic(i, 256)).ok());
      db->metadata()->Insert(TestKey(i), 1000000 + i);
    }
    // Overlap: key 10 newest in dev, key 12 newest in main.
    ASSERT_TRUE(db->dev()->Put(TestKey(10), Value::Synthetic(777, 256)).ok());
    db->metadata()->Insert(TestKey(10), 2000000);
    ASSERT_TRUE(db->dev()->Put(TestKey(12), Value::Synthetic(888, 256)).ok());
    // (12 not in metadata: main is newest)
    // Dev tombstone hides key 14 entirely.
    ASSERT_TRUE(db->dev()->Delete(TestKey(14)).ok());
    db->metadata()->Insert(TestKey(14), 2000001);

    auto it = db->NewIterator({});
    std::vector<std::string> keys;
    uint64_t seed10 = 0, seed12 = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      keys.push_back(it->key().ToString());
      Value v = Value::DecodeOrDie(it->value());
      if (it->key().ToString() == TestKey(10)) seed10 = v.seed();
      if (it->key().ToString() == TestKey(12)) seed12 = v.seed();
    }
    EXPECT_EQ(keys.size(), 99u);  // 100 keys minus tombstoned 14
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(seed10, 777u);  // metadata says dev is newest
    EXPECT_EQ(seed12, 12u);   // metadata says main is newest
    for (const auto& k : keys) EXPECT_NE(k, TestKey(14));

    // Seek into the middle.
    it->Seek(TestKey(50));
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), TestKey(50));
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, HybridIteratorSurvivesRollbackMidScan) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.rollback = RollbackScheme::kDisabled;
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    // Even keys host-side; odd keys device-side with proper host sequence
    // numbers and metadata records, exactly as redirection leaves them.
    for (int i = 0; i < 100; i += 2) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 256)).ok());
    }
    for (int i = 1; i < 100; i += 2) {
      uint64_t seq = db->main()->AllocateSequence(1);
      ASSERT_TRUE(
          db->dev()->Put(TestKey(i), Value::Synthetic(i, 256), seq).ok());
      db->metadata()->Insert(TestKey(i), seq);
    }

    // Open the iterator, scan a quarter, then let a full rollback drain and
    // reset the Dev-LSM underneath it. Both the device's merged view and the
    // metadata key set were pinned at open, so the scan must keep producing
    // every key in order — nothing may vanish or flip sides mid-scan.
    auto it = db->NewIterator({});
    it->SeekToFirst();
    std::vector<std::string> keys;
    for (int i = 0; i < 25; i++) {
      ASSERT_TRUE(it->Valid());
      keys.push_back(it->key().ToString());
      it->Next();
    }
    ASSERT_TRUE(db->RollbackNow().ok());
    EXPECT_TRUE(db->dev()->Empty());  // rollback really did reset the device
    for (; it->Valid(); it->Next()) {
      keys.push_back(it->key().ToString());
      Value v = Value::DecodeOrDie(it->value());
      uint64_t n = strtoull(it->key().ToString().c_str() + 3, nullptr, 10);
      EXPECT_EQ(v.seed(), n) << it->key().ToString();
    }
    ASSERT_EQ(keys.size(), 100u) << "keys vanished across the rollback";
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    for (int i = 0; i < 100; i++) EXPECT_EQ(keys[i], TestKey(i));

    // A fresh iterator sees the post-rollback world: same 100 keys, now all
    // host-side.
    auto it2 = db->NewIterator({});
    int count = 0;
    for (it2->SeekToFirst(); it2->Valid(); it2->Next()) count++;
    EXPECT_EQ(count, 100);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, CrashRecoveryRebuildsConsistency) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 2500; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i % 400), Value::Synthetic(i, 4096)).ok());
    }
    ASSERT_GT(db->metadata()->Size(), 0u);
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());

    // Lose the volatile hash table; recover by full rollback (paper §VI-D).
    Nanos recovery = 0;
    ASSERT_TRUE(db->CrashMetadataAndRecover(&recovery).ok());
    EXPECT_GT(recovery, 0u);
    EXPECT_TRUE(db->dev()->Empty());
    EXPECT_EQ(db->metadata()->Size(), 0u);
    Value v;
    for (int k = 0; k < 400; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      // Last write of key k among i = 0..2499 with i % 400 == k.
      uint64_t expect = (k < 100) ? (2400 + k) : (2000 + k);
      EXPECT_EQ(v.seed(), expect) << k;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, EagerRollbackRunsAutomatically) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 2;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    kv_opts.rollback = RollbackScheme::kEager;
    kv_opts.eager_calm_periods = 2;
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i % 500), Value::Synthetic(i, 4096)).ok());
    }
    // Give the background managers idle time to drain the device.
    ASSERT_TRUE(db->WaitForCompactionIdle().ok());
    world.env.SleepFor(FromSecs(2));
    EXPECT_TRUE(db->dev()->Empty());
    EXPECT_GT(db->kv_stats().rollbacks, 0u);
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, MetadataCostsMatchTableVI) {
  SimWorld world;
  world.Run([&] {
    KvaccelOptions opts = SmallKvOptions();
    KvaccelStats stats;
    MetadataManager md(&world.env, world.host_cpu.get(), opts, &stats);
    Nanos t0 = world.env.Now();
    md.Insert("key1", 7);
    EXPECT_EQ(world.env.Now() - t0, 450u);  // 0.45 us
    t0 = world.env.Now();
    EXPECT_TRUE(md.Check("key1"));
    EXPECT_EQ(world.env.Now() - t0, 200u);  // 0.20 us
    t0 = world.env.Now();
    md.Delete("key1");
    EXPECT_EQ(world.env.Now() - t0, 280u);  // 0.28 us
    EXPECT_FALSE(md.Check("key1"));
    EXPECT_EQ(stats.md_inserts, 1u);
    EXPECT_EQ(stats.md_checks, 2u);
    EXPECT_EQ(stats.md_deletes, 1u);
  });
}

// Iterators built while the key set is unchanged share one snapshot; a change
// gives later iterators a fresh one and leaves earlier ones untouched. Every
// call still costs one key check.
TEST(KvaccelDbTest, MetadataSnapshotSharedUntilKeySetChanges) {
  SimWorld world;
  world.Run([&] {
    KvaccelOptions opts = SmallKvOptions();
    KvaccelStats stats;
    MetadataManager md(&world.env, world.host_cpu.get(), opts, &stats);
    md.Insert("a", 1);
    Nanos t0 = world.env.Now();
    MetadataManager::KeySnapshot s1 = md.SnapshotKeySet();
    EXPECT_EQ(world.env.Now() - t0, 200u);
    MetadataManager::KeySnapshot s2 = md.SnapshotKeySet();
    EXPECT_EQ(s1, s2);
    md.Insert("a", 2);  // same key set: the snapshot stays valid
    EXPECT_EQ(md.SnapshotKeySet(), s1);

    md.InsertBatch({{"b", 3}});
    MetadataManager::KeySnapshot s3 = md.SnapshotKeySet();
    EXPECT_NE(s3, s1);
    EXPECT_EQ(s1->count("b"), 0u);
    EXPECT_EQ(s3->count("b"), 1u);

    md.Delete("a");
    MetadataManager::KeySnapshot s4 = md.SnapshotKeySet();
    EXPECT_EQ(s4->count("a"), 0u);
    EXPECT_EQ(s3->count("a"), 1u);

    md.LoseAll();
    EXPECT_TRUE(md.SnapshotKeySet()->empty());
    EXPECT_EQ(s4->size(), 1u);
    EXPECT_EQ(stats.md_checks, 6u);
  });
}

using KeySeqModel = std::unordered_map<std::string, uint64_t>;

// Home slots among the last four of the table (for tables up to 2^20 slots),
// so probe runs are long and wrap past the end; the 12 tag bits above still
// tell most keys apart, and equal tags force key compares.
struct CollidingHash {
  uint32_t operator()(std::string_view key) const {
    const uint32_t h = MetadataKeyHash()(key);
    return (h & 0xfff00000u) | 0xffffcu | (h & 3u);
  }
};

template <typename Table>
void ExpectTableMatchesModel(const Table& table, const KeySeqModel& model) {
  ASSERT_EQ(table.size(), model.size());
  KeySeqModel entries(table.entries().begin(), table.entries().end());
  EXPECT_EQ(entries.size(), table.entries().size()) << "duplicate entries";
  EXPECT_EQ(entries, model);
  for (const auto& [key, seq] : model) {
    const uint64_t* found = table.Find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, seq) << key;
  }
}

// Every key in one wrapped probe run: inserts, overwrites, finds and erases
// from anywhere in the run (backward shift), across growths and a Clear.
TEST(MetadataTableTest, CollidingKeysMatchModel) {
  BasicMetadataTable<CollidingHash> table;
  KeySeqModel model;
  Random64 rnd(77);
  for (int op = 0; op < 20000; op++) {
    const std::string key = "c" + std::to_string(rnd.Uniform(300));
    const uint64_t r = rnd.Uniform(3);
    if (r == 0) {
      ASSERT_EQ(table.Erase(key), model.erase(key) > 0) << key;
    } else if (r == 1) {
      const uint64_t seq = rnd.Next();
      ASSERT_EQ(table.InsertOrAssign(key, seq),
                model.insert_or_assign(key, seq).second)
          << key;
    } else {
      const uint64_t* found = table.Find(key);
      auto it = model.find(key);
      ASSERT_EQ(found != nullptr, it != model.end()) << key;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << key;
      }
    }
    if (op % 25 == 0) ExpectTableMatchesModel(table, model);
    if (op == 12000) {
      table.Clear();
      model.clear();
    }
  }
  ExpectTableMatchesModel(table, model);
}

// ~100k random calls through MetadataManager against a std::unordered_map:
// short (SSO) and long keys, many table growths, LoseAll then reuse. Every
// call keeps its Table VI virtual cost and md_* count.
TEST(KvaccelDbTest, MetadataManagerMatchesModel) {
  SimWorld world;
  world.Run([&] {
    KvaccelOptions opts = SmallKvOptions();
    KvaccelStats stats;
    MetadataManager md(&world.env, world.host_cpu.get(), opts, &stats);
    KeySeqModel model;
    Random64 rnd(2024);
    const std::string long_prefix(40, 'L');
    auto random_key = [&] {
      const uint64_t k = rnd.Uniform(30000);
      return (k % 2 == 0 ? std::string("s") : long_prefix) + std::to_string(k);
    };
    uint64_t inserts = 0, checks = 0, deletes = 0;
    auto verify = [&] {
      const auto entries = md.Entries();
      EXPECT_EQ(entries.size(), model.size());
      EXPECT_EQ(KeySeqModel(entries.begin(), entries.end()), model);
      std::unordered_set<std::string> keys;
      for (const auto& [key, seq] : model) keys.insert(key);
      EXPECT_EQ(*md.SnapshotKeySet(), keys);
      checks++;
    };
    for (int op = 0; op < 100000; op++) {
      const Nanos t0 = world.env.Now();
      Nanos cost = 0;
      const uint64_t r = rnd.Uniform(100);
      if (r < 30) {
        const std::string key = random_key();
        const uint64_t seq = 1 + rnd.Uniform(uint64_t{1} << 40);
        md.Insert(key, seq);
        model.insert_or_assign(key, seq);
        inserts++;
        cost = 450;
      } else if (r < 40) {
        std::vector<std::pair<std::string, uint64_t>> recs(1 + rnd.Uniform(8));
        for (auto& [key, seq] : recs) {
          key = random_key();
          seq = 1 + rnd.Uniform(uint64_t{1} << 40);
          model.insert_or_assign(key, seq);
        }
        md.InsertBatch(recs);
        inserts += recs.size();
        cost = static_cast<Nanos>(450 * recs.size());
      } else if (r < 60) {
        const std::string key = random_key();
        ASSERT_EQ(md.Check(key), model.count(key) > 0) << key;
        checks++;
        cost = 200;
      } else if (r < 75) {
        const std::string key = random_key();
        auto it = model.find(key);
        ASSERT_EQ(md.GetSeq(key), it == model.end() ? 0 : it->second) << key;
        checks++;
        cost = 200;
      } else {
        const std::string key = random_key();
        md.Delete(key);
        model.erase(key);
        deletes++;
        cost = 280;
      }
      ASSERT_EQ(world.env.Now() - t0, cost) << "op " << op;
      ASSERT_EQ(md.Size(), model.size()) << "op " << op;
      if (op == 60000) {
        verify();
        md.LoseAll();
        model.clear();
        EXPECT_TRUE(md.Empty());
        EXPECT_TRUE(md.Entries().empty());
      }
    }
    verify();
    EXPECT_GT(model.size(), 10000u);
    EXPECT_EQ(stats.md_inserts, inserts);
    EXPECT_EQ(stats.md_checks, checks);
    EXPECT_EQ(stats.md_deletes, deletes);
  });
}

// Concurrent writers coalesce through the Main-LSM writer queue: the total
// op count and the sequence space stay exact, while the number of commit
// groups drops below the number of writes.
TEST(KvaccelDbTest, MultiWriterGroupCommit) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.redirection_enabled = false;  // every write takes the writer queue
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());

    constexpr int kWriters = 4;
    constexpr int kWritesPerWriter = 400;
    std::vector<sim::SimEnv::Thread*> writers;
    for (int t = 0; t < kWriters; t++) {
      writers.push_back(world.env.Spawn("writer" + std::to_string(t), [&, t] {
        for (int i = 0; i < kWritesPerWriter; i++) {
          uint64_t k = static_cast<uint64_t>(t) * kWritesPerWriter + i;
          ASSERT_TRUE(db->Put({}, TestKey(k), Value::Synthetic(k, 4096)).ok());
        }
      }));
    }
    for (auto* w : writers) world.env.Join(w);

    const uint64_t total = uint64_t{kWriters} * kWritesPerWriter;
    EXPECT_EQ(db->stats().writes_total, total);
    const lsm::DbStats& ms = db->main()->stats();
    EXPECT_EQ(ms.writes_total, total);
    // Coalescing happened: fewer groups than writes, groups cover every entry.
    EXPECT_GT(ms.write_groups, 0u);
    EXPECT_LT(ms.write_groups, total);
    EXPECT_EQ(ms.group_commit_size.Count(), ms.write_groups);
    EXPECT_GT(ms.group_commit_size.Max(), 1u);
    uint64_t grouped_entries = static_cast<uint64_t>(
        ms.group_commit_size.Average() *
            static_cast<double>(ms.group_commit_size.Count()) +
        0.5);
    EXPECT_EQ(grouped_entries, total);
    // Sequence space is gapless: exactly `total` numbers were consumed.
    EXPECT_EQ(db->main()->AllocateSequence(1), total + 1);

    // Every writer's data survived the shared commits.
    Value v;
    for (uint64_t k = 0; k < total; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), k) << k;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

// A rollback racing concurrent batched writes must neither lose writes nor
// resurrect stale device copies: the newest version of every key wins,
// whichever path served it and whenever the drain happened.
TEST(KvaccelDbTest, RollbackDuringConcurrentBatchWrites) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());

    // Build stall pressure so the device holds data worth rolling back.
    std::vector<uint64_t> latest(250);
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(
          db->Put({}, TestKey(i % 250), Value::Synthetic(i, 4096)).ok());
      latest[i % 250] = static_cast<uint64_t>(i);
    }
    ASSERT_GT(db->kv_stats().redirected_writes, 0u);
    ASSERT_FALSE(db->dev()->Empty());

    // One actor streams 8-entry batches while the rollback drains the device.
    constexpr int kBatches = 60;
    constexpr int kBatchSize = 8;
    auto* writer = world.env.Spawn("batch-writer", [&] {
      uint64_t seed = 100000;
      for (int b = 0; b < kBatches; b++) {
        lsm::WriteBatch batch;
        for (int j = 0; j < kBatchSize; j++) {
          int k = (b * kBatchSize + j) % 250;
          batch.Put(TestKey(k), Value::Synthetic(seed, 64));
          latest[k] = seed++;
        }
        ASSERT_TRUE(db->Write({}, &batch).ok());
      }
    });
    ASSERT_TRUE(db->RollbackNow().ok());
    world.env.Join(writer);

    EXPECT_GE(db->kv_stats().rollbacks, 1u);
    Value v;
    for (int k = 0; k < 250; k++) {
      ASSERT_TRUE(db->Get({}, TestKey(k), &v).ok()) << k;
      EXPECT_EQ(v.seed(), latest[k]) << k;
    }
    ASSERT_TRUE(db->Close().ok());
  });
}

TEST(KvaccelDbTest, NoRedirectionWhenDisabled) {
  SimWorld world;
  world.Run([&] {
    lsm::DbOptions main_opts = test::SmallDbOptions();
    main_opts.compaction_threads = 1;
    KvaccelOptions kv_opts = SmallKvOptions();
    kv_opts.redirection_enabled = false;
    kv_opts.detector_period = FromMillis(1);
    std::unique_ptr<KvaccelDB> db;
    ASSERT_TRUE(
        KvaccelDB::Open(main_opts, kv_opts, world.MakeDbEnv(), &db).ok());
    for (int i = 0; i < 1500; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(i), Value::Synthetic(i, 4096)).ok());
    }
    EXPECT_EQ(db->kv_stats().redirected_writes, 0u);
    EXPECT_TRUE(db->dev()->Empty());
    ASSERT_TRUE(db->Close().ok());
  });
}

}  // namespace
}  // namespace kvaccel::core
