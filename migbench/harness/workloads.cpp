#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "apps/bitonic.hpp"
#include "apps/linpack.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "exit_hook.hpp"
#include "net/factory.hpp"
#include "net/message.hpp"

namespace migbench {

namespace {

using hpm::MigContext;
using hpm::MigrationExit;
using hpm::MigrationReport;
namespace obs = hpm::obs;

/// Every migration triggers at the first poll-point: a poll count, never a
/// timer, so the migrated state is the same in every run.
constexpr std::uint64_t kMigratePoll = 1;

/// Share of an untraced run spent in app runs; the rest is migrations.
constexpr double kAppShare = 0.5;

/// Concurrent fleet sessions: one per vCPU of the 4-vCPU reference host.
constexpr int kFleetSessions = 4;

/// Fleet warm-up batches per set-up. One batch's time depends on whether a
/// session met the 40 ms delayed ACK; several average that out.
constexpr int kFleetWarmupBatches = 4;

double elapsed_since(Clock::time_point t) { return seconds_between(t, Clock::now()); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Mean of the middle half of the samples. App-run times fall in two
/// modes (on linpack 0.18 s and 0.28 s, roughly half each), so their median
/// jumps between the modes from run to run; this moves with the share.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// The highest percentile with at least ten samples beyond it; below forty
/// samples that would be no tail, and the median is reported instead.
double tail(std::vector<double> v) {
  if (v.size() < 40) return median(v);
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

std::string describe_samples(const std::vector<double>& v) {
  char buf[200];
  if (v.size() < 2) return "too few samples";
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  const int written = std::snprintf(buf, sizeof buf, "%zu samples, p25/p50/p75 = %.4f/%.4f/%.4f s, ",
                                    n, s[n / 4], median(s), s[(3 * n) / 4]);
  std::string out(buf, static_cast<std::size_t>(written));
  if (n < 40) return out + "tail = median (fewer than 40 samples)";
  std::snprintf(buf, sizeof buf, "tail = p%.1f (sample %zu of %zu, 10 beyond it)",
                100.0 * static_cast<double>(n - 10) / static_cast<double>(n), n - 10, n);
  return out + buf;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Pass/fail bookkeeping of the operations a run attempted.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    ++failed;
    note("failed: " + why);
  }
  void wrong(const std::string& why) {
    correct = false;
    note("wrong result: " + why);
  }
  void note(const std::string& line) {
    if (problems.size() < 8) problems.push_back(line);
  }
};

/// What the closed loop of migrations measured.
struct LoopStats {
  std::vector<double> freeze;   ///< request -> resume, one per migration
  double busy_s = 0;            ///< operation wall time minus the benchmark's captures
  std::uint64_t migrations = 0;
  std::uint64_t stream_bytes = 0;
  std::map<std::string, std::uint64_t> counts;  ///< registry counters, captures excluded

  /// Adds a call's registry delta. The state capture runs inside the call
  /// and drives only MSRLT instruments, so exactly those are taken out.
  void add_counts(const obs::MetricsSnapshot& call,
                  const std::vector<const obs::MetricsSnapshot*>& captures) {
    for (const auto& [name, v] : call.counters) counts[name] += v;
    for (const obs::MetricsSnapshot* c : captures) {
      for (const auto& [name, v] : c->counters) {
        if (name.rfind("msr.", 0) == 0) counts[name] -= v;
      }
    }
  }
  [[nodiscard]] double per_migration(const char* name) const {
    const auto it = counts.find(name);
    return it == counts.end() ? 0 : ratio(static_cast<double>(it->second),
                                          static_cast<double>(migrations));
  }
  [[nodiscard]] double count(const char* name) const {
    const auto it = counts.find(name);
    return it == counts.end() ? 0 : static_cast<double>(it->second);
  }
};

/// Holds the destinations of one fleet batch until every session has
/// resumed, then lets them capture one at a time: no capture overlaps a
/// freeze interval or another capture's registry delta.
class CaptureGate {
 public:
  explicit CaptureGate(int sessions) : waiting_(sessions) {}
  CaptureGate(const CaptureGate&) = delete;
  CaptureGate& operator=(const CaptureGate&) = delete;

  /// False when the batch did not assemble in time (a session failed).
  bool arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--waiting_ <= 0) {
      cv_.notify_all();
      return true;
    }
    return cv_.wait_for(lock, std::chrono::seconds(30), [this] { return waiting_ <= 0; });
  }
  std::mutex& capture_mutex() { return capture_mu_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_;
  std::mutex capture_mu_;
};

void capture(MigContext& ctx, Probe& probe, const Tamper& tamper, CaptureGate* gate) {
  if (gate != nullptr && !gate->arrive_and_wait()) probe.error = "fleet batch never assembled";
  std::unique_lock<std::mutex> lock;
  if (gate != nullptr) lock = std::unique_lock<std::mutex>(gate->capture_mutex());
  probe.capture_start = Clock::now();
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  try {
    if (tamper) tamper(ctx);
    probe.state = capture_state(ctx);
    probe.captured = true;
  } catch (const std::exception& e) {
    probe.error = std::string("state capture failed: ") + e.what();
  }
  probe.capture_counts = obs::Registry::process().snapshot().delta_since(before);
  probe.capture_end = Clock::now();
}

/// The benchmark's program wrapper. On the source it stamps program entry,
/// the request moment (arrival at the migration poll, through the poll
/// observer) and the source's MigrationExit. On the destination it stamps
/// the resume moment, when the MigrationExit raised once restore and commit
/// are done is thrown, and captures the restored state right then, while
/// the restored frames are still live.
std::function<void(MigContext&)> instrument(const Program& program, Probe& probe,
                                            Tamper tamper, CaptureGate* gate) {
  return [run = program.run, &probe, tamper = std::move(tamper), gate](MigContext& ctx) {
    if (ctx.restoring()) {
      ++probe.dest_runs;
      probe.dest_entry = Clock::now();
      const ExitHook resume([&] {
        probe.resume = Clock::now();
        capture(ctx, probe, tamper, gate);
      });
      run(ctx);
      return;
    }
    probe.entry = Clock::now();
    ctx.set_poll_observer([&probe](MigContext& c) {
      if (c.poll_count() == kMigratePoll) probe.request = Clock::now();
    });
    try {
      run(ctx);
    } catch (const MigrationExit&) {
      probe.collected = Clock::now();
      throw;
    }
  };
}

hpm::RunOptions job_options(const Program& program, Probe& probe, Tamper tamper,
                            CaptureGate* gate) {
  hpm::RunOptions options;
  options.register_types = program.register_types;
  options.program = instrument(program, probe, std::move(tamper), gate);
  options.migrate_at_poll = kMigratePoll;
  options.transport = hpm::Transport::Socket;
  options.stop_after_restore = true;
  return options;
}

bool migrated_once(const MigrationReport& report) {
  return report.outcome == hpm::MigrationOutcome::Migrated && report.attempts == 1;
}

std::string outcome_text(const MigrationReport& report) {
  std::string text = std::string(hpm::outcome_name(report.outcome)) + " after " +
                     std::to_string(report.attempts) + " attempt(s)";
  for (const std::string& cause : report.failure_causes) text += "; " + cause;
  return text;
}

/// Checks what the wrapper saw of a migration the engine reported as done.
/// Returns false (and records why) when the result is wrong.
bool check_probe(const Probe& probe, const StateImage& ref, Tally& tally,
                 const std::string& what) {
  if (!probe.error.empty()) {
    tally.wrong(what + ": " + probe.error);
    return false;
  }
  if (probe.request == Clock::time_point{} || probe.dest_runs != 1 || !probe.captured) {
    tally.wrong(what + ": migration poll, destination run or capture not seen");
    return false;
  }
  const std::string diff = compare_state(ref, probe.state);
  if (!diff.empty()) {
    tally.wrong(what + ": restored state differs from the source state at the poll: " + diff);
    return false;
  }
  return true;
}

void record_migration_spans(const Probe& p, std::uint64_t parent) {
  SpanLog& log = SpanLog::process();
  if (!log.enabled()) return;
  log.record(0, "apps.prefix", p.entry, p.request, parent);
  log.record(0, "msrm.collect", p.request, p.collected, parent);
  if (p.dest_entry > p.collected) log.record(0, "mig.handoff", p.collected, p.dest_entry, parent);
  log.record(0, "msrm.restore", p.dest_entry, p.resume, parent);
  log.record(0, "freeze", p.request, p.resume, parent);
  log.record(0, "check.capture", p.capture_start, p.capture_end, parent);
}

/// --- linpack solution check ------------------------------------------------

/// The solution vector at the last poll of the run: dgesl has finished
/// every back-substitution step except the last, b[0] /= a[0][0].
std::vector<double> linpack_solution_at_last_poll(MigContext& ctx, int n) {
  const hpm::mig::ExecutionState state = ctx.snapshot_execution_state();
  if (state.frames.empty() || state.frames.back().func != "dgesl") {
    throw std::runtime_error("linpack's last poll is not in dgesl");
  }
  const auto pointee = [&](const char* name) {
    for (const hpm::mig::SavedVar& var : state.frames.back().vars) {
      if (var.name != name) continue;
      const hpm::msr::MemoryBlock* block = ctx.space().msrlt().find_id(var.source_block);
      return reinterpret_cast<const double*>(ctx.space().read_pointer(block->base));
    }
    throw std::runtime_error(std::string("dgesl local not found: ") + name);
  };
  const double* a = pointee("a");
  const double* b = pointee("b");
  std::vector<double> x(b, b + n);
  x[0] /= a[0];
  return x;
}

/// HPL's scaled residual ||Ax-b|| / (eps (||A|| ||x|| + ||b||) n), infinity
/// norms, over the benchmark's own regeneration of the netlib matgen system.
double hpl_scaled_residual(int n, std::uint64_t seed, const std::vector<double>& x) {
  if (x.size() != static_cast<std::size_t>(n)) return INFINITY;
  const std::size_t nn = static_cast<std::size_t>(n);
  std::vector<double> a(nn * nn);
  std::vector<double> b(nn, 0.0);
  int init = 1325 + 2 * static_cast<int>(seed % 1000);
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t i = 0; i < nn; ++i) {
      init = 3125 * init % 65536;
      a[nn * j + i] = (init - 32768.0) / 16384.0;
      b[i] += a[nn * j + i];
    }
  }
  std::vector<double> r(nn);
  std::vector<double> row_abs(nn, 0.0);
  for (std::size_t i = 0; i < nn; ++i) r[i] = -b[i];
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t i = 0; i < nn; ++i) {
      r[i] += a[nn * j + i] * x[j];
      row_abs[i] += std::fabs(a[nn * j + i]);
    }
  }
  double norm_r = 0, norm_a = 0, norm_x = 0, norm_b = 0;
  for (std::size_t i = 0; i < nn; ++i) {
    norm_r = std::max(norm_r, std::fabs(r[i]));
    norm_a = std::max(norm_a, row_abs[i]);
    norm_x = std::max(norm_x, std::fabs(x[i]));
    norm_b = std::max(norm_b, std::fabs(b[i]));
  }
  return norm_r / (DBL_EPSILON * (norm_a * norm_x + norm_b) * n);
}

std::uint64_t bitonic_leaf_sum(int log2_leaves, std::uint64_t seed) {
  hpm::Rng rng(seed);  // build_tree draws one value per leaf, nothing else
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < (1ull << log2_leaves); ++i) sum += rng.next_below(1u << 30);
  return sum;
}

/// --- workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-ups per untraced run (see run_untraced).
  [[nodiscard]] virtual int setups_per_run() const { return 5; }
  /// Type registration, the reference values the checks need, warm-up.
  virtual void setup() = 0;
  /// One closed-loop operation (a migration, or a fleet batch), checked.
  virtual void migrate(Tally& tally, LoopStats& loop) = 0;
  /// One checked run to completion in a bare MigContext; returns its
  /// wall time.
  virtual double app_run(Tally& tally) = 0;
  /// The migrated program whose layers the traced run drives one by one,
  /// and its state at the migration poll.
  [[nodiscard]] virtual const Program& job() const = 0;
  [[nodiscard]] virtual const StateImage& reference() const = 0;
};

/// linpack and bitonic: one run_migration per operation.
class SingleMigration : public Workload {
 public:
  SingleMigration(std::string name, Program job, std::function<double(Tally&)> app, int setups)
      : name_(std::move(name)), job_(std::move(job)), app_(std::move(app)), setups_(setups) {}

  [[nodiscard]] int setups_per_run() const override { return setups_; }

  void setup() override {
    ref_ = reference_at_poll(job_);
    Tally warm;
    LoopStats ignored;
    migrate(warm, ignored);
    if (warm.failed != 0 || !warm.correct) {
      throw hpm::MigrationError(name_ + " warm-up migration: " + warm.problems.front());
    }
  }

  void migrate(Tally& tally, LoopStats& loop) override {
    ++tally.attempted;
    Probe probe;
    const std::uint64_t span = SpanLog::process().open();
    const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
    const Clock::time_point t0 = Clock::now();
    MigrationReport report;
    try {
      report = migrate_once(job_, probe);
    } catch (const std::exception& e) {
      tally.fail(name_ + " migration threw: " + e.what());
      return;
    }
    const Clock::time_point t1 = Clock::now();
    const obs::MetricsSnapshot delta = obs::Registry::process().snapshot().delta_since(before);
    SpanLog::process().record(span, "hpm.run_migration", t0, t1);
    record_migration_spans(probe, span);
    if (!migrated_once(report)) {
      tally.fail(name_ + " migration: " + outcome_text(report));
      return;
    }
    if (!check_probe(probe, ref_, tally, name_)) return;
    loop.freeze.push_back(seconds_between(probe.request, probe.resume));
    loop.busy_s += seconds_between(t0, t1) - seconds_between(probe.capture_start, probe.capture_end);
    ++loop.migrations;
    loop.stream_bytes += report.stream_bytes;
    loop.add_counts(delta, {&probe.capture_counts});
  }

  double app_run(Tally& tally) override { return app_(tally); }
  [[nodiscard]] const Program& job() const override { return job_; }
  [[nodiscard]] const StateImage& reference() const override { return ref_; }

 private:
  std::string name_;
  Program job_;
  std::function<double(Tally&)> app_;
  int setups_;
  StateImage ref_;
};

/// fleet: one migrate_many batch of concurrent sessions per operation.
class Fleet : public Workload {
 public:
  Fleet(const Config& cfg, std::function<double(Tally&)> app) : app_(std::move(app)) {
    for (int i = 0; i < kFleetSessions; ++i) {
      jobs_.push_back(bitonic_job(cfg.job_log2, cfg.seed + static_cast<std::uint64_t>(i)));
    }
  }

  void setup() override {
    refs_.clear();
    for (const Program& job : jobs_) refs_.push_back(reference_at_poll(job));
    for (int b = 0; b < kFleetWarmupBatches; ++b) {
      Tally warm;
      LoopStats ignored;
      migrate(warm, ignored);
      if (warm.failed != 0 || !warm.correct) {
        throw hpm::MigrationError("fleet warm-up batch: " + warm.problems.front());
      }
    }
  }

  void migrate(Tally& tally, LoopStats& loop) override {
    const std::size_t k = jobs_.size();
    tally.attempted += k;
    std::vector<Probe> probes(k);
    CaptureGate gate(static_cast<int>(k));
    std::vector<hpm::SessionJob> jobs(k);
    for (std::size_t i = 0; i < k; ++i) jobs[i].options = job_options(jobs_[i], probes[i], {}, &gate);
    const std::uint64_t span = SpanLog::process().open();
    const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
    const Clock::time_point t0 = Clock::now();
    std::vector<hpm::SessionOutcome> outcomes;
    try {
      outcomes = hpm::migrate_many(jobs, hpm::Transport::Socket);
    } catch (const std::exception& e) {
      tally.failed += k;
      tally.note(std::string("failed: fleet batch threw: ") + e.what());
      return;
    }
    const Clock::time_point t1 = Clock::now();
    const obs::MetricsSnapshot delta = obs::Registry::process().snapshot().delta_since(before);
    SpanLog::process().record(span, "hpm.migrate_many", t0, t1);

    Clock::time_point first_capture = t1, last_capture = t0;
    std::vector<const obs::MetricsSnapshot*> captures;
    for (std::size_t i = 0; i < k; ++i) {
      const Probe& probe = probes[i];
      record_migration_spans(probe, span);
      if (probe.captured) {
        first_capture = std::min(first_capture, probe.capture_start);
        last_capture = std::max(last_capture, probe.capture_end);
        captures.push_back(&probe.capture_counts);
      }
      const std::string what = "fleet session " + std::to_string(i + 1);
      const hpm::SessionOutcome& out = outcomes.at(i);
      if (out.status != hpm::sched::SessionStatus::Completed || !migrated_once(out.report)) {
        tally.fail(what + ": " + hpm::sched::session_status_name(out.status) + ", " +
                   outcome_text(out.report));
        continue;
      }
      if (!check_probe(probe, refs_[i], tally, what)) continue;
      loop.freeze.push_back(seconds_between(probe.request, probe.resume));
      ++loop.migrations;
      loop.stream_bytes += out.report.stream_bytes;
    }
    loop.busy_s += seconds_between(t0, t1) -
                   (last_capture > first_capture ? seconds_between(first_capture, last_capture) : 0);
    loop.add_counts(delta, captures);
  }

  double app_run(Tally& tally) override { return app_(tally); }
  [[nodiscard]] const Program& job() const override { return jobs_.front(); }
  [[nodiscard]] const StateImage& reference() const override { return refs_.front(); }

 private:
  std::vector<Program> jobs_;
  std::vector<StateImage> refs_;
  std::function<double(Tally&)> app_;
};

std::function<double(Tally&)> linpack_app(int n, std::uint64_t seed) {
  return [n, seed](Tally& tally) {
    ++tally.attempted;
    hpm::ti::TypeTable types;
    hpm::apps::linpack_register_types(types);
    MigContext ctx(types);
    std::vector<double> x;
    const std::uint64_t last_poll = 3ull * static_cast<std::uint64_t>(n) - 2;
    ctx.set_poll_observer([&x, n, last_poll](MigContext& c) {
      if (c.poll_count() == last_poll) x = linpack_solution_at_last_poll(c, n);
    });
    hpm::apps::LinpackResult out;
    const Clock::time_point t0 = Clock::now();
    hpm::apps::linpack_program(ctx, n, seed, &out);
    const double wall = elapsed_since(t0);
    const double resid = hpl_scaled_residual(n, seed, x);
    if (!out.done) {
      tally.wrong("linpack app run: dgefa reported a zero pivot (info != 0)");
    } else if (!(resid < 16.0)) {
      tally.wrong("linpack app run: HPL scaled residual " + std::to_string(resid) + " >= 16");
    }
    return wall;
  };
}

std::function<double(Tally&)> bitonic_app(int log2_leaves, std::uint64_t seed) {
  const std::uint64_t expected = bitonic_leaf_sum(log2_leaves, seed);
  return [log2_leaves, seed, expected](Tally& tally) {
    ++tally.attempted;
    hpm::ti::TypeTable types;
    hpm::apps::bitonic_register_types(types);
    MigContext ctx(types);
    hpm::apps::BitonicResult out;
    const Clock::time_point t0 = Clock::now();
    hpm::apps::bitonic_program(ctx, log2_leaves, seed, &out);
    const double wall = elapsed_since(t0);
    if (!out.done || !out.sorted || out.sum_before != expected || out.sum_after != expected) {
      tally.wrong("bitonic app run: leaves not sorted or leaf sum not preserved");
    }
    return wall;
  };
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Config& cfg) {
  if (name == "linpack") {
    return std::make_unique<SingleMigration>(name, linpack_job(cfg.linpack_n, cfg.seed),
                                             linpack_app(cfg.linpack_n, cfg.seed), 5);
  }
  if (name == "bitonic") {
    // A bitonic set-up takes 2-3 s; three keep the run within its time.
    return std::make_unique<SingleMigration>(name, bitonic_job(cfg.bitonic_log2, cfg.seed),
                                             bitonic_app(cfg.job_log2, cfg.seed), 3);
  }
  if (name == "fleet") return std::make_unique<Fleet>(cfg, bitonic_app(cfg.job_log2, cfg.seed));
  throw std::invalid_argument("unknown workload: " + name);
}

/// --- traced run: each layer's entry point on its own -----------------------

/// The peer end of a loopback socket pair: answers a State frame with one
/// reply frame, and a Prepare+Commit pair of small frames with one reply
/// (the shape of the commit exchange).
class EchoPeer {
 public:
  EchoPeer() : pair_(hpm::net::make_channel_pair(hpm::net::Transport::Socket)) {
    pair_.source->set_timeout(std::chrono::seconds(60));
    thread_ = std::thread([this] { serve(); });
  }
  ~EchoPeer() {
    try {
      hpm::net::send_message(*pair_.source, hpm::net::MsgType::Shutdown, {});
    } catch (...) {
      pair_.destination->abort();
    }
    thread_.join();
  }
  EchoPeer(const EchoPeer&) = delete;
  EchoPeer& operator=(const EchoPeer&) = delete;

  double send_state(const hpm::Bytes& stream) {
    Span span("net.send");
    const Clock::time_point t0 = Clock::now();
    hpm::net::send_message(*pair_.source, hpm::net::MsgType::State, stream);
    expect_reply();
    return elapsed_since(t0);
  }

  double small_rtt() {
    Span span("net.small_rtt");
    const hpm::Bytes payload(16, 0x5A);
    const Clock::time_point t0 = Clock::now();
    hpm::net::send_message(*pair_.source, hpm::net::MsgType::Prepare, payload);
    hpm::net::send_message(*pair_.source, hpm::net::MsgType::Commit, payload);
    expect_reply();
    return elapsed_since(t0);
  }

 private:
  /// Also waits until the peer's send_message has returned: it counts the
  /// frame in the registry after the bytes leave, and that count must not
  /// land in the registry delta of the migration measured next.
  void expect_reply() {
    if (hpm::net::recv_message(*pair_.source).type != hpm::net::MsgType::Ack) {
      throw std::runtime_error("echo peer answered with an unexpected frame");
    }
    ++replies_expected_;
    while (replies_sent_.load() < replies_expected_) std::this_thread::yield();
  }

  void serve() {
    try {
      for (;;) {
        const hpm::net::Message msg = hpm::net::recv_message(*pair_.destination);
        if (msg.type == hpm::net::MsgType::Shutdown) return;
        if (msg.type == hpm::net::MsgType::Prepare) continue;  // its Commit gets the reply
        hpm::net::send_message(*pair_.destination, hpm::net::MsgType::Ack, hpm::Bytes(1, 0));
        replies_sent_.fetch_add(1);
      }
    } catch (...) {
      // The source side sees the dead peer as a NetError on its next recv.
    }
  }

  hpm::net::ChannelPair pair_;
  std::uint64_t replies_expected_ = 0;
  std::atomic<std::uint64_t> replies_sent_{0};
  std::thread thread_;
};

struct LayerSamples {
  std::vector<double> prefix, collect, restore, send, small_rtt, solo;
  std::uint64_t registrations = 0;
  std::uint64_t app_runs = 0;
  std::uint64_t solo_chunks = 0, solo_prepares = 0;  ///< routed-path counts of the solo jobs
};

/// Program entry -> migration poll -> source MigrationExit in a bare
/// context, then begin_restore + program re-entry -> MigrationExit in a
/// second one. Returns the collected stream.
hpm::Bytes probe_msrm(const Program& job, LayerSamples& s) {
  hpm::Bytes stream;
  {
    hpm::ti::TypeTable types;
    job.register_types(types);
    MigContext src(types);
    src.set_migrate_at_poll(kMigratePoll);
    Clock::time_point request{};
    src.set_poll_observer([&request](MigContext& c) {
      if (c.poll_count() == kMigratePoll) request = Clock::now();
    });
    const Clock::time_point entry = Clock::now();
    try {
      job.run(src);
      throw std::runtime_error("program completed without reaching its migration poll");
    } catch (const MigrationExit&) {
    }
    const Clock::time_point exit = Clock::now();
    SpanLog::process().record(0, "apps.prefix", entry, request);
    SpanLog::process().record(0, "msrm.collect", request, exit);
    s.prefix.push_back(seconds_between(entry, request));
    s.collect.push_back(seconds_between(request, exit));
    stream = src.stream();
  }
  hpm::ti::TypeTable types;
  job.register_types(types);
  MigContext dst(types);
  dst.set_stop_after_restore(true);
  hpm::Bytes copy = stream;
  const Clock::time_point t0 = Clock::now();
  dst.begin_restore(std::move(copy));
  try {
    job.run(dst);
    throw std::runtime_error("restored program did not stop after restore");
  } catch (const MigrationExit&) {
  }
  const Clock::time_point t1 = Clock::now();
  SpanLog::process().record(0, "msrm.restore", t0, t1);
  s.restore.push_back(seconds_between(t0, t1));
  return stream;
}

/// One job migrated alone through migrate_many: its freeze without
/// contention from sibling sessions. Counted and checked like any other
/// migration.
void probe_solo(const Workload& w, LayerSamples& s, Tally& tally) {
  ++tally.attempted;
  Probe probe;
  std::vector<hpm::SessionJob> jobs(1);
  jobs[0].options = job_options(w.job(), probe, {}, nullptr);
  const std::uint64_t span = SpanLog::process().open();
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  const Clock::time_point t0 = Clock::now();
  std::vector<hpm::SessionOutcome> out;
  try {
    out = hpm::migrate_many(jobs, hpm::Transport::Socket);
  } catch (const std::exception& e) {
    tally.fail(std::string("solo migration threw: ") + e.what());
    return;
  }
  SpanLog::process().record(span, "sched.solo", t0, Clock::now());
  const obs::MetricsSnapshot delta = obs::Registry::process().snapshot().delta_since(before);
  record_migration_spans(probe, span);
  if (out.at(0).status != hpm::sched::SessionStatus::Completed || !migrated_once(out[0].report)) {
    tally.fail(std::string("solo migration: ") + hpm::sched::session_status_name(out[0].status) +
               ", " + outcome_text(out[0].report));
    return;
  }
  if (!check_probe(probe, w.reference(), tally, "solo migration")) return;
  s.solo.push_back(seconds_between(probe.request, probe.resume));
  s.solo_chunks += delta.counter("mig.pipeline.chunks");
  s.solo_prepares += delta.counter("mig.txn.prepares");
}

/// A metric computed from no samples would read 0 and look like a gain:
/// the run is marked wrong instead.
void require_samples(Tally& tally, const std::vector<double>& samples, const char* what) {
  if (samples.empty()) tally.wrong(std::string("no sample of ") + what);
}

Result finish(const Tally& tally) {
  Result r;
  r.correct = tally.correct;
  r.attempted = tally.attempted;
  r.failed = tally.failed;
  r.notes = tally.problems;
  return r;
}

Result run_untraced(const std::string& name, const Config& cfg) {
  // App runs and set-ups are interleaved with the migrations so that all
  // three sample the whole run: this host's speed drifts between two
  // levels for seconds at a time, and a metric measured only in the first
  // or last seconds of a run follows whichever level those seconds fell
  // in. Set-up k of n runs when the loop has measured k/n of its time, on
  // a fresh workload that the loop then goes on with; the loop's clock
  // stands still while it runs.
  std::unique_ptr<Workload> w;
  std::vector<double> setups;
  double paused = 0;
  const auto set_up = [&] {
    w.reset();
    const Clock::time_point t0 = Clock::now();
    w = make_workload(name, cfg);
    w->setup();
    setups.push_back(elapsed_since(t0));
  };
  set_up();
  const std::size_t setup_count =
      static_cast<std::size_t>(cfg.setup_repeats > 0 ? cfg.setup_repeats : w->setups_per_run());

  Tally tally;
  LoopStats loop;
  std::vector<double> app;
  double app_total = 0;
  const Clock::time_point start = Clock::now();
  const auto measured = [&] { return elapsed_since(start) - paused; };
  do {
    w->migrate(tally, loop);
    if (app_total < kAppShare * measured()) {
      app.push_back(w->app_run(tally));
      app_total += app.back();
    }
    if (setups.size() < setup_count &&
        measured() >= cfg.seconds * static_cast<double>(setups.size()) /
                           static_cast<double>(setup_count)) {
      set_up();
      paused += setups.back();
    }
  } while (measured() < cfg.seconds);
  while (app.size() < 3) app.push_back(w->app_run(tally));
  const double peak_mib = peak_rss_mib();
  require_samples(tally, loop.freeze, "freeze");

  Result r = finish(tally);
  const double wire = loop.per_migration("net.socket.bytes_sent");
  r.metrics = {
      {"setup_s", median(setups), "s"},
      {"freeze_p50_s", median(loop.freeze), "s"},
      {"freeze_tail_s", tail(loop.freeze), "s"},
      {"migrations_per_s", ratio(static_cast<double>(loop.migrations), loop.busy_s), "1/s"},
      {"wire_bytes", wire, "B"},
      {"app_run_s", interquartile_mean(app), "s"},
      {"peak_rss_mb", peak_mib, "MiB"},
  };
  r.notes.push_back(name + " freeze: " + describe_samples(loop.freeze));
  r.notes.push_back(name + " app runs: " + describe_samples(app));
  r.notes.push_back(name + " set-ups: " + describe_samples(setups));
  return r;
}

Result run_traced(const std::string& name, const Config& cfg) {
  std::unique_ptr<Workload> w = make_workload(name, cfg);
  w->setup();
  EchoPeer peer;
  LayerSamples s;
  Tally tally;
  LoopStats loop;
  const Clock::time_point start = Clock::now();
  int rounds = 0;
  do {
    Span round("round");
    const hpm::Bytes stream = probe_msrm(w->job(), s);
    s.send.push_back(peer.send_state(stream));
    s.small_rtt.push_back(peer.small_rtt());
    w->migrate(tally, loop);
    probe_solo(*w, s, tally);
    const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
    {
      Span app("apps.run");
      w->app_run(tally);
    }
    s.registrations += obs::Registry::process().snapshot().delta_since(before).counter(
        "msr.msrlt.registrations");
    ++s.app_runs;
    ++rounds;
  } while (rounds < 3 || elapsed_since(start) < cfg.seconds);
  for (const auto& [samples, what] :
       {std::pair{&s.prefix, "prefix"}, {&s.collect, "collect"}, {&s.restore, "restore"},
        {&s.send, "send"}, {&s.small_rtt, "small round trip"}, {&s.solo, "solo freeze"},
        {&loop.freeze, "freeze"}}) {
    require_samples(tally, *samples, what);
  }

  const double freeze = median(loop.freeze);
  const double parts = median(s.collect) + median(s.send) + median(s.restore);
  const double searches = loop.count("msr.msrlt.searches");
  const auto solo_ratio = [&s](std::uint64_t n) {
    return ratio(static_cast<double>(n), static_cast<double>(s.solo.size()));
  };
  Result r = finish(tally);
  r.metrics = {
      {"apps.prefix_s", median(s.prefix), "s"},
      {"msrm.collect_s", median(s.collect), "s"},
      {"msrm.restore_s", median(s.restore), "s"},
      {"net.send_s", median(s.send), "s"},
      {"net.small_rtt_s", median(s.small_rtt), "s"},
      {"mig.engine_s", freeze - parts, "s"},
      {"trace.freeze_p50_s", freeze, "s"},
      {"sched.solo_freeze_s", median(s.solo), "s"},
      {"sched.contention_ratio", ratio(freeze, median(s.solo)), "ratio"},
      {"msr.searches", loop.per_migration("msr.msrlt.searches"), "count"},
      {"msr.search_steps", loop.per_migration("msr.msrlt.search_steps"), "count"},
      {"msr.steps_per_search", ratio(loop.count("msr.msrlt.search_steps"), searches), "ratio"},
      {"msr.cache_hit_ratio", ratio(loop.count("msr.msrlt.cache_hits"), searches), "ratio"},
      {"msr.registrations",
       ratio(static_cast<double>(s.registrations), static_cast<double>(s.app_runs)), "count"},
      {"msrm.blocks_saved", loop.per_migration("msrm.collect.blocks_saved"), "count"},
      {"msrm.blocks_created", loop.per_migration("msrm.restore.blocks_created"), "count"},
      {"msrm.bulk_byte_ratio",
       ratio(loop.count("msrm.collect.bulk_bytes"), static_cast<double>(loop.stream_bytes)),
       "ratio"},
      {"xdr.encode_bytes", loop.per_migration("xdr.encode.bytes"), "B"},
      {"net.frames_sent", loop.per_migration("net.frames.sent"), "count"},
      {"net.pool_reuse_ratio",
       ratio(loop.count("net.pool.reuses"), loop.count("net.pool.acquires")), "ratio"},
      {"mig.attempts", loop.per_migration("mig.coordinator.attempts"), "count"},
      // Per solo job: the routed path, which the serial path of the
      // linpack and bitonic loops never takes.
      {"mig.chunks", solo_ratio(s.solo_chunks), "count"},
      {"mig.txn_prepares", solo_ratio(s.solo_prepares), "count"},
  };
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: collect + send + restore = %.6f s next to traced freeze_p50_s = %.6f s "
                "(%d rounds, %zu freeze samples)",
                name.c_str(), parts, freeze, rounds, loop.freeze.size());
  r.notes.emplace_back(line);
  if (!cfg.trace_path.empty() && !SpanLog::process().write_chrome_trace(cfg.trace_path)) {
    r.notes.push_back("could not write the Chrome trace to " + cfg.trace_path);
  }
  return r;
}

}  // namespace

Config Config::smoke() {
  Config c;
  c.linpack_n = 64;
  c.bitonic_log2 = 8;
  c.job_log2 = 6;
  c.seconds = 0.5;
  c.setup_repeats = 1;
  return c;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"linpack", "bitonic", "fleet"};
  return names;
}

Program linpack_job(int n, std::uint64_t seed) {
  return Program{hpm::apps::linpack_register_types, [n, seed](MigContext& ctx) {
                   hpm::apps::LinpackResult unused;
                   hpm::apps::linpack_program(ctx, n, seed, &unused);
                 }};
}

Program bitonic_job(int log2_leaves, std::uint64_t seed) {
  return Program{hpm::apps::bitonic_register_types, [log2_leaves, seed](MigContext& ctx) {
                   hpm::apps::BitonicResult unused;
                   hpm::apps::bitonic_program(ctx, log2_leaves, seed, &unused);
                 }};
}

StateImage reference_at_poll(const Program& program) {
  hpm::ti::TypeTable types;
  program.register_types(types);
  MigContext ctx(types);
  StateImage image;
  bool seen = false;
  // The observer runs at the poll before the migration check; collecting
  // there (migrate_at_poll) then unwinds the program without running on.
  ctx.set_poll_observer([&](MigContext& c) {
    if (c.poll_count() != kMigratePoll) return;
    image = capture_state(c);
    seen = true;
  });
  ctx.set_migrate_at_poll(kMigratePoll);
  try {
    program.run(ctx);
  } catch (const MigrationExit&) {
  }
  if (!seen) throw hpm::MigrationError("program never reached its migration poll");
  return image;
}

MigrationReport migrate_once(const Program& program, Probe& probe, const Tamper& tamper) {
  return hpm::run_migration(job_options(program, probe, tamper, nullptr));
}

Result run_workload(const std::string& name, const Config& cfg) {
  SpanLog::process().set_enabled(cfg.traced);
  return cfg.traced ? run_traced(name, cfg) : run_untraced(name, cfg);
}

}  // namespace migbench
