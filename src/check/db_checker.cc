#include "check/db_checker.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <utility>

#include "core/kvaccel_db.h"
#include "lsm/dbformat.h"
#include "lsm/sst.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"

namespace kvaccel::check {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

std::string U64(uint64_t v) { return std::to_string(v); }

}  // namespace

// ---------------- CheckReport ----------------

void CheckReport::Error(std::string what) {
  issues.push_back({CheckIssue::Severity::kError, std::move(what)});
}

void CheckReport::Warn(std::string what) {
  issues.push_back({CheckIssue::Severity::kWarning, std::move(what)});
}

int CheckReport::errors() const {
  int n = 0;
  for (const auto& i : issues) {
    if (i.severity == CheckIssue::Severity::kError) n++;
  }
  return n;
}

int CheckReport::warnings() const {
  return static_cast<int>(issues.size()) - errors();
}

std::string CheckReport::ToString() const {
  std::string out = "check: " + U64(errors()) + " error(s), " +
                    U64(warnings()) + " warning(s) [" + U64(manifest_edits) +
                    " manifest edit(s), " + U64(sst_files_checked) +
                    " sst(s), " + U64(wal_files_checked) + " wal(s)]\n";
  for (const auto& i : issues) {
    out += (i.severity == CheckIssue::Severity::kError ? "  [E] " : "  [W] ");
    out += i.what;
    out += '\n';
  }
  for (const auto& a : actions) {
    out += "  [R] " + a + '\n';
  }
  return out;
}

// ---------------- Naming ----------------

std::string DbChecker::SstName(uint64_t number) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%06llu.sst",
           static_cast<unsigned long long>(number));
  return buf;
}

std::string DbChecker::LogName(uint64_t number) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%06llu.log",
           static_cast<unsigned long long>(number));
  return buf;
}

// ---------------- Manifest replay (read-only) ----------------

Status DbChecker::ReplayManifest(ManifestState* state, CheckReport* report) {
  if (!denv_.fs->FileExists("CURRENT")) {
    return Status::Corruption("CURRENT missing");
  }
  std::unique_ptr<fs::RandomAccessFile> current;
  Status s = denv_.fs->NewRandomAccessFile("CURRENT", &current);
  if (!s.ok()) return s;
  std::string manifest_name;
  s = current->Read(0, current->physical_size(), &manifest_name);
  if (!s.ok()) return s;
  if (!denv_.fs->FileExists(manifest_name)) {
    return Status::Corruption("CURRENT points at missing " + manifest_name);
  }
  state->manifest_name = manifest_name;

  std::unique_ptr<fs::RandomAccessFile> file;
  s = denv_.fs->NewRandomAccessFile(manifest_name, &file);
  if (!s.ok()) return s;
  lsm::LogReader reader(std::move(file));
  std::string payload;
  Status rs = Status::OK();
  while (reader.ReadRecord(&payload, &rs)) {
    lsm::VersionEdit edit;
    s = lsm::VersionEdit::DecodeFrom(payload, &edit);
    if (!s.ok()) {
      return Status::Corruption(manifest_name + ": undecodable edit: " +
                                s.ToString());
    }
    report->manifest_edits++;
    if (edit.has_log_number()) state->log_number = edit.log_number();
    if (edit.has_next_file_number()) {
      state->next_file_number = edit.next_file_number();
    }
    if (edit.has_last_sequence()) state->last_sequence = edit.last_sequence();
    for (const auto& [level, number] : edit.deleted()) {
      if (level < 0 || level >= lsm::kNumLevels) {
        return Status::Corruption(manifest_name + ": delete at bad level " +
                                  U64(level));
      }
      auto& files = state->levels[level];
      auto it = std::find_if(files.begin(), files.end(), [&](const auto& f) {
        return f->number == number;
      });
      if (it == files.end()) {
        report->Warn(manifest_name + ": edit deletes unknown file " +
                     U64(number) + " at L" + U64(level));
      } else {
        files.erase(it);
      }
    }
    for (const auto& [level, f] : edit.added()) {
      if (level < 0 || level >= lsm::kNumLevels) {
        return Status::Corruption(manifest_name + ": add at bad level " +
                                  U64(level));
      }
      state->levels[level].push_back(f);
    }
  }
  // A torn tail (crash between append and sync) ends iteration cleanly;
  // a bad record with valid records after it is reported as corruption.
  return rs;
}

// ---------------- SST verification ----------------

Status DbChecker::VerifySst(const std::string& name, uint64_t number,
                            lsm::FileMetaData* meta) {
  std::shared_ptr<lsm::SstReader> reader;
  Status s = lsm::SstReader::Open(options_, denv_.fs, name, number,
                                  /*cache=*/nullptr, &reader);
  if (!s.ok()) return s;
  lsm::ReadOptions ropts;
  ropts.verify_checksums = true;
  ropts.fill_cache = false;
  lsm::InternalKeyComparator icmp;
  auto iter = reader->NewIterator(ropts);
  uint64_t entries = 0;
  lsm::SequenceNumber max_seq = 0;
  std::string prev, smallest, largest;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    Slice key = iter->key();
    if (!prev.empty() && icmp.Compare(Slice(prev), key) >= 0) {
      return Status::Corruption(name + ": internal keys out of order");
    }
    if (entries == 0) smallest.assign(key.data(), key.size());
    prev.assign(key.data(), key.size());
    max_seq = std::max(max_seq, lsm::ExtractSequence(key));
    entries++;
  }
  if (!iter->status().ok()) return iter->status();
  largest = prev;
  if (meta != nullptr) {
    meta->num_entries = entries;
    meta->max_seq = max_seq;
    meta->smallest = smallest;
    meta->largest = largest;
    (void)denv_.fs->GetFileSize(name, &meta->logical_size);
  }
  return Status::OK();
}

// ---------------- WAL tail sanity ----------------

void DbChecker::CheckWal(const ManifestState& state, CheckReport* report) {
  for (const std::string& name : denv_.fs->GetChildren()) {
    if (name.size() != 10 || name.substr(6) != ".log") continue;
    uint64_t number = strtoull(name.c_str(), nullptr, 10);
    if (number < state.log_number) {
      report->Warn("stale WAL " + name + " (manifest log number " +
                   U64(state.log_number) + ")");
      continue;
    }
    std::unique_ptr<fs::RandomAccessFile> file;
    Status s = denv_.fs->NewRandomAccessFile(name, &file);
    if (!s.ok()) {
      report->Error(name + ": " + s.ToString());
      continue;
    }
    lsm::LogReader reader(std::move(file));
    std::string payload;
    Status rs = Status::OK();
    uint64_t next_seq = 0;
    bool first = true;
    while (reader.ReadRecord(&payload, &rs)) {
      lsm::WriteBatch batch;
      Status ps = lsm::WriteBatch::ParseFrom(payload, &batch);
      if (!ps.ok()) {
        report->Error(name + ": WAL record does not parse as a batch: " +
                      ps.ToString());
        break;
      }
      if (!first && batch.Sequence() < next_seq) {
        report->Error(name + ": WAL sequences regress (" +
                      U64(batch.Sequence()) + " after " + U64(next_seq) + ")");
      }
      next_seq = batch.Sequence() + batch.Count();
      first = false;
    }
    if (!rs.ok()) {
      // Mid-log corruption (valid records after the bad one): not a torn
      // tail, so the DB would refuse recovery here too.
      report->Error(name + ": " + rs.ToString());
    }
    report->wal_files_checked++;
  }
}

// ---------------- Check ----------------

CheckReport DbChecker::Check() {
  CheckReport report;
  ManifestState st;
  Status s = ReplayManifest(&st, &report);
  if (!s.ok()) {
    report.Error("MANIFEST: " + s.ToString());
    return report;
  }

  lsm::InternalKeyComparator icmp;
  std::set<uint64_t> live;
  for (int level = 0; level < lsm::kNumLevels; level++) {
    for (const auto& f : st.levels[level]) {
      if (!live.insert(f->number).second) {
        report.Error("file " + U64(f->number) +
                     " appears twice in the manifest");
      }
      std::string name = SstName(f->number);
      if (!denv_.fs->FileExists(name)) {
        report.Error("MANIFEST references missing SST " + name + " at L" +
                     U64(level));
        continue;
      }
      lsm::FileMetaData observed;
      s = VerifySst(name, f->number, &observed);
      report.sst_files_checked++;
      if (!s.ok()) {
        report.Error(name + ": " + s.ToString());
        continue;
      }
      if (observed.num_entries != f->num_entries) {
        report.Error(name + ": entry count " + U64(observed.num_entries) +
                     " != recorded " + U64(f->num_entries));
      }
      if (observed.max_seq != f->max_seq) {
        report.Error(name + ": max seq " + U64(observed.max_seq) +
                     " != recorded " + U64(f->max_seq));
      }
      if (observed.smallest != f->smallest || observed.largest != f->largest) {
        report.Error(name + ": key range differs from recorded range");
      }
      if (f->max_seq > st.last_sequence) {
        report.Error(name + ": max seq " + U64(f->max_seq) +
                     " exceeds manifest last_sequence " +
                     U64(st.last_sequence) + " (sequence monotonicity)");
      }
    }
  }

  // Level non-overlap (L1+ only; L0 legally overlaps).
  for (int level = 1; level < lsm::kNumLevels; level++) {
    auto files = st.levels[level];
    std::sort(files.begin(), files.end(), [&](const auto& a, const auto& b) {
      return icmp.Compare(Slice(a->smallest), Slice(b->smallest)) < 0;
    });
    for (size_t i = 1; i < files.size(); i++) {
      Slice prev_largest = lsm::ExtractUserKey(files[i - 1]->largest);
      Slice cur_smallest = lsm::ExtractUserKey(files[i]->smallest);
      int cmp = prev_largest.compare(cur_smallest);
      if (cmp > 0) {
        report.Error("L" + U64(level) + " files " + U64(files[i - 1]->number) +
                     " and " + U64(files[i]->number) +
                     " overlap in user-key space");
      } else if (cmp == 0) {
        // A user key's versions split across two files: point lookups probe
        // one file per level, so this deserves eyes even if no query has
        // tripped on it yet.
        report.Warn("L" + U64(level) + " files " + U64(files[i - 1]->number) +
                    " and " + U64(files[i]->number) +
                    " share a boundary user key");
      }
    }
  }

  // Inventory sweep: orphans and strangers are warnings (a power cut legally
  // strands a partially flushed SST; recovery simply never references it).
  for (const std::string& name : denv_.fs->GetChildren()) {
    if (name == "CURRENT" || name == "CURRENT.tmp" || name == "KVX_INDEX" ||
        name == "FENCE" || name == "FENCE.tmp" || name == st.manifest_name) {
      continue;
    }
    if (EndsWith(name, ".bad")) {
      report.Warn("quarantined file " + name);
      continue;
    }
    if (StartsWith(name, "MANIFEST-")) {
      report.Warn("stale manifest " + name);
      continue;
    }
    if (name.size() == 10 && name.substr(6) == ".sst") {
      uint64_t number = strtoull(name.c_str(), nullptr, 10);
      if (live.count(number) == 0) {
        report.Warn("orphan SST " + name + " (not referenced by MANIFEST)");
      }
      continue;
    }
    if (name.size() == 10 && name.substr(6) == ".log") continue;  // below
    report.Warn("unknown file " + name);
  }

  CheckWal(st, &report);
  return report;
}

// ---------------- Repair ----------------

Status DbChecker::Repair(CheckReport* report, uint64_t max_valid_seq) {
  std::vector<std::pair<uint64_t, std::string>> ssts, logs;
  std::vector<std::string> manifests;
  uint64_t max_number = 0;
  for (const std::string& name : denv_.fs->GetChildren()) {
    if (name.size() == 10 && name.substr(6) == ".sst") {
      uint64_t n = strtoull(name.c_str(), nullptr, 10);
      ssts.emplace_back(n, name);
      max_number = std::max(max_number, n);
    } else if (name.size() == 10 && name.substr(6) == ".log") {
      uint64_t n = strtoull(name.c_str(), nullptr, 10);
      logs.emplace_back(n, name);
      max_number = std::max(max_number, n);
    } else if (StartsWith(name, "MANIFEST-") && !EndsWith(name, ".bad")) {
      manifests.push_back(name);
      uint64_t n = strtoull(name.c_str() + 9, nullptr, 10);
      max_number = std::max(max_number, n);
    }
  }
  std::sort(ssts.begin(), ssts.end());
  std::sort(logs.begin(), logs.end());

  // 1. Keep every SST that passes full verification; quarantine the rest.
  std::vector<lsm::FileMetaPtr> good;
  lsm::SequenceNumber last_sequence = 0;
  for (const auto& [number, name] : ssts) {
    auto meta = std::make_shared<lsm::FileMetaData>();
    meta->number = number;
    Status s = VerifySst(name, number, meta.get());
    if (s.ok() && meta->num_entries > 0 && meta->max_seq > max_valid_seq) {
      // Diverged tail: entries above the fencing frontier were never acked
      // anywhere, so the whole file is quarantined (resync restores any
      // acked keys it straddled from the serving node).
      Status rs = denv_.fs->RenameFile(name, name + ".bad");
      if (!rs.ok()) return rs;
      report->actions.push_back("quarantined " + name +
                                ": diverged tail (max_seq " +
                                U64(meta->max_seq) + " > frontier " +
                                U64(max_valid_seq) + ")");
    } else if (s.ok() && meta->num_entries > 0) {
      last_sequence = std::max(last_sequence, meta->max_seq);
      good.push_back(std::move(meta));
      report->actions.push_back("kept SST " + name);
    } else {
      Status rs = denv_.fs->RenameFile(name, name + ".bad");
      if (!rs.ok()) return rs;
      report->actions.push_back(
          "quarantined " + name + ": " +
          (s.ok() ? std::string("empty table") : s.ToString()));
    }
  }

  // 2. Salvage the valid prefix of every WAL (recovery replays them all:
  // the new manifest's log number is the smallest surviving log).
  uint64_t log_number = 0;
  for (const auto& [number, name] : logs) {
    std::unique_ptr<fs::RandomAccessFile> file;
    Status s = denv_.fs->NewRandomAccessFile(name, &file);
    if (!s.ok()) return s;
    lsm::LogReader reader(std::move(file));
    std::vector<std::string> valid;
    std::string payload;
    Status rs = Status::OK();
    bool cut = false;
    bool frontier_cut = false;
    while (reader.ReadRecord(&payload, &rs)) {
      lsm::WriteBatch batch;
      if (!lsm::WriteBatch::ParseFrom(payload, &batch).ok()) {
        cut = true;  // framing survived but the payload is damaged
        break;
      }
      if (batch.Count() > 0 &&
          batch.Sequence() + batch.Count() - 1 > max_valid_seq) {
        // First batch past the fencing frontier: this and everything after
        // it is the diverged tail a partitioned primary WAL-appended but
        // never got acked — drop it so recovery cannot resurrect it.
        cut = true;
        frontier_cut = true;
        break;
      }
      valid.push_back(payload);
    }
    if (!rs.ok()) cut = true;
    if (cut) {
      std::unique_ptr<fs::WritableFile> out;
      s = denv_.fs->NewWritableFile(name, &out);  // O_TRUNC semantics
      if (!s.ok()) return s;
      lsm::LogWriter writer(std::move(out));
      for (const std::string& rec : valid) {
        s = writer.AddRecord(rec, rec.size());
        if (!s.ok()) return s;
      }
      s = writer.Sync();
      if (!s.ok()) return s;
      s = writer.Close();
      if (!s.ok()) return s;
      report->actions.push_back(
          "salvaged " + U64(valid.size()) + " record(s) of " + name +
          (frontier_cut ? " (diverged tail cut at frontier " +
                              U64(max_valid_seq) + ")"
                        : ""));
    }
    if (log_number == 0 || number < log_number) log_number = number;
  }

  // 3. Fresh MANIFEST: one snapshot edit, every good SST at L0 under its
  // original number. The L0 probe path picks the highest-sequence decider
  // among overlapping files (the max_seq shadow check), so losing the level
  // structure never loses sequence correctness.
  uint64_t manifest_number = max_number + 1;
  std::string manifest_name = "MANIFEST-";
  {
    char buf[16];
    snprintf(buf, sizeof(buf), "%06llu",
             static_cast<unsigned long long>(manifest_number));
    manifest_name += buf;
  }
  lsm::VersionEdit snapshot;
  snapshot.SetLogNumber(log_number);
  snapshot.SetNextFileNumber(manifest_number + 1);
  snapshot.SetLastSequence(last_sequence);
  for (const auto& f : good) snapshot.AddFile(0, f);
  std::unique_ptr<fs::WritableFile> mfile;
  Status s = denv_.fs->NewWritableFile(manifest_name, &mfile);
  if (!s.ok()) return s;
  lsm::LogWriter mwriter(std::move(mfile));
  std::string payload;
  snapshot.EncodeTo(&payload);
  s = mwriter.AddRecord(payload, payload.size());
  if (!s.ok()) return s;
  s = mwriter.Sync();
  if (!s.ok()) return s;
  s = mwriter.Close();
  if (!s.ok()) return s;
  report->actions.push_back("rebuilt " + manifest_name + " with " +
                            U64(good.size()) + " SST(s) at L0");

  // 4. Quarantine the manifests the rebuild replaces.
  for (const std::string& name : manifests) {
    s = denv_.fs->RenameFile(name, name + ".bad");
    if (!s.ok()) return s;
    report->actions.push_back("quarantined " + name);
  }

  // 5. Repoint CURRENT atomically (the LevelDB idiom).
  std::unique_ptr<fs::WritableFile> tmp;
  s = denv_.fs->NewWritableFile("CURRENT.tmp", &tmp);
  if (!s.ok()) return s;
  s = tmp->Append(manifest_name);
  if (!s.ok()) return s;
  s = tmp->Sync();
  if (!s.ok()) return s;
  s = tmp->Close();
  if (!s.ok()) return s;
  return denv_.fs->RenameFile("CURRENT.tmp", "CURRENT");
}

// ---------------- Live dual-interface invariant ----------------

void DbChecker::CheckDualInterface(core::KvaccelDB* db, CheckReport* report) {
  // Newest-version-only device view with host sequence numbers. BulkScan
  // streams each key once, in key order, so the vector is sorted.
  std::vector<std::pair<std::string, uint64_t>> dev_view;
  if (!db->dev()->Empty()) {
    (void)db->dev()->BulkScan([&](const devlsm::DevLsm::ScanEntry& e) {
      assert(dev_view.empty() || dev_view.back().first < e.key);
      dev_view.emplace_back(e.key, e.host_seq);
    });
  }
  auto by_key = [](const auto& entry, const std::string& key) {
    return entry.first < key;
  };
  auto dev_find = [&](const std::string& key) {
    auto it = std::lower_bound(dev_view.begin(), dev_view.end(), key, by_key);
    return it != dev_view.end() && it->first == key ? it : dev_view.end();
  };
  const auto md = db->metadata()->Entries();
  for (const auto& [key, md_seq] : md) {
    auto it = dev_find(key);
    if (it == dev_view.end()) {
      report->Error("metadata entry not resolvable in Dev-LSM: " + key);
      continue;
    }
    if (it->second != md_seq) {
      report->Error("metadata seq " + U64(md_seq) + " != device host seq " +
                    U64(it->second) + " for " + key);
    }
    Value unused;
    lsm::SequenceNumber main_seq = 0;
    Status s = db->main()->GetWithSequence({}, key, &unused, &main_seq);
    if (!s.ok() && !s.IsNotFound()) {
      report->Error("main read failed for " + key + ": " + s.ToString());
      continue;
    }
    if (md_seq != 0 && main_seq >= md_seq) {
      report->Error("key authoritative in both paths: " + key + " (main seq " +
                    U64(main_seq) + " >= md seq " + U64(md_seq) + ")");
    }
  }
  // Metadata keys in key order, for the device-only pass below.
  std::vector<const std::string*> md_keys;
  md_keys.reserve(md.size());
  for (const auto& entry : md) md_keys.push_back(&entry.first);
  auto key_less = [](const std::string* a, const std::string* b) {
    return *a < *b;
  };
  std::sort(md_keys.begin(), md_keys.end(), key_less);
  // Device entries without a metadata record: fine while superseded by a
  // newer host write (the 3-1 path deleted the record); fatal when the
  // device copy is the newest version — no read path reaches it, and a
  // trusted rollback would drop it.
  for (const auto& [key, host_seq] : dev_view) {
    if (std::binary_search(md_keys.begin(), md_keys.end(), &key, key_less)) {
      continue;
    }
    if (host_seq == 0) {
      report->Warn("unversioned device entry without metadata: " + key);
      continue;
    }
    Value unused;
    lsm::SequenceNumber main_seq = 0;
    Status s = db->main()->GetWithSequence({}, key, &unused, &main_seq);
    if (!s.ok() && !s.IsNotFound()) {
      report->Error("main read failed for " + key + ": " + s.ToString());
      continue;
    }
    if (main_seq >= host_seq) {
      report->Warn("superseded device residue: " + key);
    } else {
      report->Error("orphaned device entry holds newest version of " + key +
                    " (host seq " + U64(host_seq) + " > main seq " +
                    U64(main_seq) + ") with no metadata record");
    }
  }
}

Status DbChecker::RepairDualInterface(core::KvaccelDB* db) {
  // Drop the (possibly inconsistent) volatile table and re-run the
  // sequence-ordered metadata-less recovery: every device pair either wins
  // by sequence (drained to the host) or is superseded (dropped), after
  // which the device is empty and the invariant holds vacuously.
  return db->CrashMetadataAndRecover(nullptr);
}

}  // namespace kvaccel::check
