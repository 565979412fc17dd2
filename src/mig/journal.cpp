#include "mig/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/hexdump.hpp"

namespace hpm::mig {

namespace {

/// Record wire formats (all integers big-endian).
///
/// v1 ('HPMJ', pre-failover):
///   u32 magic | u8 type | u64 txn | u64 digest |
///   u32 note_len | note bytes | u32 crc32(everything preceding)
/// v2 ('HPMK', adds the destination incarnation fencing token):
///   u32 magic | u8 type | u64 txn | u64 digest | u32 incarnation |
///   u32 note_len | note bytes | u32 crc32(everything preceding)
///
/// append() always writes v2; replay() accepts both (v1 records carry
/// incarnation 1, the primary), so journals written before the failover
/// format still arbitrate.
constexpr std::uint32_t kJournalMagic = 0x48504D4A;    // "HPMJ"
constexpr std::uint32_t kJournalMagicV2 = 0x48504D4B;  // "HPMK"
constexpr std::size_t kFixedHead = 4 + 1 + 8 + 8 + 4;
constexpr std::size_t kFixedHeadV2 = 4 + 1 + 8 + 8 + 4 + 4;

void put_u32_be(Bytes& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

void put_u64_be(Bytes& out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

std::uint32_t get_u32_be(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | in[i];
  return v;
}

std::uint64_t get_u64_be(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | in[i];
  return v;
}

Bytes encode_record(const JournalRecord& record) {
  Bytes out;
  out.reserve(kFixedHeadV2 + record.note.size() + 4);
  put_u32_be(out, kJournalMagicV2);
  out.push_back(static_cast<std::uint8_t>(record.type));
  put_u64_be(out, record.txn_id);
  put_u64_be(out, record.digest);
  put_u32_be(out, record.incarnation == 0 ? 1 : record.incarnation);
  put_u32_be(out, static_cast<std::uint32_t>(record.note.size()));
  out.insert(out.end(), record.note.begin(), record.note.end());
  put_u32_be(out, Crc32::of(out.data(), out.size()));
  return out;
}

}  // namespace

const char* journal_record_name(JournalRecordType type) noexcept {
  switch (type) {
    case JournalRecordType::Begin: return "begin";
    case JournalRecordType::Prepared: return "prepared";
    case JournalRecordType::Commit: return "commit";
    case JournalRecordType::Abort: return "abort";
    case JournalRecordType::Committed: return "committed";
    case JournalRecordType::Done: return "done";
  }
  return "?";
}

void Journal::append(const JournalRecord& record) {
  if (path_.empty()) return;  // null journal: nothing durable was promised
  std::lock_guard lk(mu_);
  const Bytes bytes = encode_record(record);
  // Plain POSIX stdio: the record must be on disk (fsync) before the
  // caller acts on the decision it encodes — that IS write-ahead logging.
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  if (f == nullptr) throw MigrationError("cannot open intent journal " + path_);
  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
                     std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!wrote) throw MigrationError("cannot append to intent journal " + path_);
}

std::vector<JournalRecord> Journal::replay(const std::string& path) {
  std::vector<JournalRecord> records;
  std::ifstream in(path, std::ios::binary);
  if (!in) return records;  // missing journal = no recorded intent
  Bytes file((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::size_t pos = 0;
  while (file.size() - pos >= kFixedHead + 4) {
    const std::uint8_t* p = file.data() + pos;
    const std::uint32_t magic = get_u32_be(p);
    const bool v2 = magic == kJournalMagicV2;
    if (magic != kJournalMagic && !v2) break;  // torn/garbage tail
    const std::size_t head = v2 ? kFixedHeadV2 : kFixedHead;
    if (file.size() - pos < head + 4) break;
    const auto raw_type = p[4];
    const std::uint32_t note_len = get_u32_be(p + head - 4);
    const std::size_t total = head + note_len + 4;
    if (file.size() - pos < total) break;  // record cut short by a crash
    if (get_u32_be(p + head + note_len) != Crc32::of(p, head + note_len)) {
      break;  // damaged mid-append; drop it and everything after
    }
    if (raw_type < 1 || raw_type > 6) break;
    JournalRecord record;
    record.type = static_cast<JournalRecordType>(raw_type);
    record.txn_id = get_u64_be(p + 5);
    record.digest = get_u64_be(p + 13);
    record.incarnation = v2 ? get_u32_be(p + 21) : 1;
    if (record.incarnation == 0) record.incarnation = 1;
    record.note.assign(reinterpret_cast<const char*>(p + head), note_len);
    records.push_back(std::move(record));
    pos += total;
  }
  return records;
}

std::string keyed_source_journal_name(std::uint64_t txn_id) {
  return "source-" + std::to_string(txn_id) + ".journal";
}

std::string keyed_dest_journal_name(std::uint64_t txn_id) {
  return "dest-" + std::to_string(txn_id) + ".journal";
}

std::string dest_journal_name(std::uint32_t incarnation) {
  if (incarnation <= 1) return kDestJournalName;
  return "dest.i" + std::to_string(incarnation) + ".journal";
}

std::string keyed_dest_journal_name(std::uint64_t txn_id, std::uint32_t incarnation) {
  if (incarnation <= 1) return keyed_dest_journal_name(txn_id);
  return "dest-" + std::to_string(txn_id) + ".i" + std::to_string(incarnation) +
         ".journal";
}

namespace {

bool all_digits(const std::string& s) {
  return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
}

/// Splits an optional ".i<k>" incarnation suffix off a journal middle
/// part: "1234" → {"1234", 1}; "1234.i3" → {"1234", 3}. Returns false
/// when the suffix is malformed.
bool split_incarnation(std::string middle, std::string& base, std::uint32_t& inc) {
  inc = 1;
  const std::size_t dot = middle.find('.');
  if (dot != std::string::npos) {
    const std::string suffix = middle.substr(dot + 1);
    if (suffix.size() < 2 || suffix[0] != 'i' || !all_digits(suffix.substr(1))) {
      return false;
    }
    inc = static_cast<std::uint32_t>(std::strtoul(suffix.c_str() + 1, nullptr, 10));
    middle.resize(dot);
  }
  base = std::move(middle);
  return true;
}

}  // namespace

std::vector<std::string> dest_journal_paths(const std::string& journal_dir,
                                            std::uint64_t txn_id) {
  // Collect {incarnation, path} for every dest journal naming this
  // transaction (or the exclusive unkeyed names for txn_id 0).
  std::vector<std::pair<std::uint32_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(journal_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".journal")) continue;
    std::uint32_t inc = 1;
    if (txn_id == 0) {
      // Exclusive naming: "dest.journal" / "dest.i<k>.journal".
      if (name == kDestJournalName) {
        inc = 1;
      } else if (name.starts_with("dest.i")) {
        const std::string digits = name.substr(6, name.size() - 6 - 8);
        if (!all_digits(digits)) continue;
        inc = static_cast<std::uint32_t>(std::strtoul(digits.c_str(), nullptr, 10));
      } else {
        continue;
      }
    } else {
      // Keyed naming: "dest-<txn>.journal" / "dest-<txn>.i<k>.journal".
      if (!name.starts_with("dest-")) continue;
      std::string base;
      if (!split_incarnation(name.substr(5, name.size() - 5 - 8), base, inc)) continue;
      if (!all_digits(base) || std::strtoull(base.c_str(), nullptr, 10) != txn_id) {
        continue;
      }
    }
    found.emplace_back(inc, journal_dir + "/" + name);
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [inc, path] : found) paths.push_back(std::move(path));
  return paths;
}

std::vector<std::uint64_t> list_journaled_txns(const std::string& journal_dir,
                                               std::vector<std::string>* skipped) {
  std::vector<std::uint64_t> txns;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(journal_dir, ec)) {
    const std::string name = entry.path().filename().string();
    // The exclusive-run names are journals too — just not keyed ones; a
    // mixed directory should not report them as foreign matter.
    if (name == kSourceJournalName || name == kDestJournalName ||
        (name.starts_with("dest.i") && name.ends_with(".journal"))) {
      continue;
    }
    // Accept "source-<txn>.journal", "dest-<txn>.journal", and the
    // failover variant "dest-<txn>.i<k>.journal". Anything else in the
    // directory — editor droppings, partial copies, unrelated files — is
    // reported (when asked) and stepped over instead of poisoning the
    // scan.
    const std::size_t dash = name.find('-');
    bool keyed = dash != std::string::npos && name.ends_with(".journal");
    std::uint64_t txn = 0;
    if (keyed) {
      const std::string stem = name.substr(0, dash);
      std::string digits;
      std::uint32_t inc = 1;
      keyed = (stem == "source" || stem == "dest") &&
              split_incarnation(name.substr(dash + 1, name.size() - dash - 1 - 8),
                                digits, inc) &&
              all_digits(digits) && (stem == "dest" || inc == 1);
      if (keyed) txn = std::strtoull(digits.c_str(), nullptr, 10);
    }
    if (!keyed) {
      if (skipped != nullptr) skipped->push_back(name + " (unrelated)");
      continue;
    }
    std::error_code size_ec;
    if (std::filesystem::file_size(entry.path(), size_ec) == 0 && !size_ec) {
      // A zero-length journal is a torn creation (crash between open and
      // the first fsync'd record): it holds no intent, so it cannot vote
      // in arbitration — but its transaction may still have records on
      // the other side, so the txn id stays in the scan.
      if (skipped != nullptr) skipped->push_back(name + " (torn: zero length)");
    }
    txns.push_back(txn);
  }
  std::sort(txns.begin(), txns.end());
  txns.erase(std::unique(txns.begin(), txns.end()), txns.end());
  if (skipped != nullptr) std::sort(skipped->begin(), skipped->end());
  return txns;
}

std::vector<std::uint64_t> gc_completed_txn_journals(const std::string& journal_dir) {
  std::vector<std::uint64_t> swept;
  for (const std::uint64_t txn : list_journaled_txns(journal_dir)) {
    const std::string src = journal_dir + "/" + keyed_source_journal_name(txn);
    const std::vector<std::string> dsts = dest_journal_paths(journal_dir, txn);
    const RecoveryVerdict verdict = recover_from_journals(src, dsts);
    if (!verdict.completed) continue;  // live, in-doubt, or aborted: keep
    std::error_code ec;
    std::filesystem::remove(src, ec);
    for (const std::string& dst : dsts) std::filesystem::remove(dst, ec);
    swept.push_back(txn);
  }
  if (!swept.empty()) {
    // The unlinks live in the DIRECTORY's data; sync it so the removals
    // are as durable as the appends were. (Without this, a crash can
    // bring a completed transaction's journals back from the dead and
    // recovery would re-arbitrate a handoff that already finished.)
    const int dir_fd = ::open(journal_dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd >= 0) {
      ::fsync(dir_fd);
      ::close(dir_fd);
    }
  }
  return swept;
}

const char* txn_owner_name(TxnOwner owner) noexcept {
  switch (owner) {
    case TxnOwner::None: return "none";
    case TxnOwner::Source: return "source";
    case TxnOwner::Destination: return "destination";
  }
  return "?";
}

RecoveryVerdict recover_from_journals(const std::string& source_path,
                                      const std::string& dest_path) {
  return recover_from_journals(source_path, std::vector<std::string>{dest_path});
}

RecoveryVerdict recover_from_journals(const std::string& source_path,
                                      const std::vector<std::string>& dest_paths) {
  const std::vector<JournalRecord> src = Journal::replay(source_path);
  std::vector<std::vector<JournalRecord>> dsts;
  dsts.reserve(dest_paths.size());
  for (const std::string& path : dest_paths) dsts.push_back(Journal::replay(path));

  RecoveryVerdict verdict;
  bool any = !src.empty();
  for (const JournalRecord& r : src) verdict.txn_id = std::max(verdict.txn_id, r.txn_id);
  for (const auto& dst : dsts) {
    any = any || !dst.empty();
    for (const JournalRecord& r : dst) verdict.txn_id = std::max(verdict.txn_id, r.txn_id);
  }
  if (!any) {
    verdict.reason = "no transaction recorded in any journal";
    return verdict;
  }

  // The LAST decisive record of the latest transaction wins: an early
  // Abort followed by a committed replay or standby leg ends at
  // Commit/Done, and that Commit carries the winning leg's incarnation —
  // the fencing token that disowns every earlier destination.
  bool src_commit = false, src_done = false;
  std::uint32_t commit_inc = 0;
  for (const JournalRecord& r : src) {
    if (r.txn_id != verdict.txn_id) continue;
    switch (r.type) {
      case JournalRecordType::Commit:
        src_commit = true;
        commit_inc = r.incarnation;
        break;
      case JournalRecordType::Abort: src_commit = false; src_done = false; break;
      case JournalRecordType::Done: src_done = true; break;
      default: break;
    }
  }
  std::uint32_t best_committed_inc = 0;
  for (const auto& dst : dsts) {
    std::uint32_t inc = 0;
    for (const JournalRecord& r : dst) {
      if (r.txn_id == verdict.txn_id && r.type == JournalRecordType::Committed) {
        inc = std::max(inc, r.incarnation);
      }
    }
    if (inc != 0) {
      ++verdict.committed_destinations;
      best_committed_inc = std::max(best_committed_inc, inc);
    }
  }

  if (src_done) {
    verdict.owner = TxnOwner::Destination;
    verdict.completed = true;
    verdict.incarnation = commit_inc != 0 ? commit_inc : std::max(best_committed_inc, 1u);
    verdict.reason = "source logged Done: destination incarnation " +
                     std::to_string(verdict.incarnation) + " confirmed completion";
  } else if (src_commit) {
    verdict.owner = TxnOwner::Destination;
    verdict.incarnation = commit_inc;
    verdict.reason = "source logged Commit for incarnation " + std::to_string(commit_inc) +
                     ": ownership passed; that destination must resume" +
                     (verdict.committed_destinations > 1
                          ? " (WARNING: multiple destinations logged Committed)"
                          : "");
  } else if (best_committed_inc != 0) {
    // Only reachable when the source journal was lost: the protocol never
    // lets a destination commit before the source's Commit is durable.
    // The highest committed incarnation is the last one the source fenced
    // everything else in favor of.
    verdict.owner = TxnOwner::Destination;
    verdict.incarnation = best_committed_inc;
    verdict.reason = "destination incarnation " + std::to_string(best_committed_inc) +
                     " logged Committed (source journal silent or lost)";
  } else {
    verdict.owner = TxnOwner::Source;
    verdict.reason = "no commit recorded: presumed abort; the source still owns "
                     "the process";
  }
  return verdict;
}

}  // namespace hpm::mig
