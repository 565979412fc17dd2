// LiveCluster: real process migration between worker "nodes" in one
// address space — the dynamic end of the paper's §5 vision, built on the
// actual collection/restoration engine (no simulation).
//
// Each node is a worker thread draining a job queue. A job is a
// re-runnable migratable program; when a migration order lands, the
// job's context receives a request, honors it at its next poll-point,
// and the collected stream is enqueued on the target node, where a fresh
// context restores and continues. migrate() is explicit (deterministic
// tests, external schedulers); enable_auto_balance() starts an internal
// balancer that moves work from the longest to the shortest queue.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mig/context.hpp"

namespace hpm::sched {

class LiveCluster {
 public:
  using RegisterTypes = std::function<void(ti::TypeTable&)>;
  using Program = std::function<void(mig::MigContext&)>;

  struct JobReport {
    int finished_on = -1;            ///< node that ran the job to completion
    std::uint32_t migrations = 0;    ///< hops the job made
    std::uint64_t moved_bytes = 0;   ///< total stream bytes shipped
    bool done = false;
  };

  LiveCluster(int nodes, RegisterTypes register_types);
  ~LiveCluster();

  LiveCluster(const LiveCluster&) = delete;
  LiveCluster& operator=(const LiveCluster&) = delete;

  /// Enqueue a job on `node`; returns its id. Jobs may be submitted
  /// before or after start().
  int submit(Program program, int node);

  /// Start the worker threads.
  void start();

  /// Order job `job_id` to migrate to `to_node` at its next poll-point.
  /// No-op if the job already finished. Safe from any thread.
  void migrate(int job_id, int to_node);

  /// Simple balancer: every `period_seconds`, move one queued-or-running
  /// job from the most-loaded node to the least-loaded one.
  void enable_auto_balance(double period_seconds);

  /// Block until every submitted job has completed; returns the reports.
  /// Throws hpm::Error if jobs are still unfinished after kWaitAllTimeout,
  /// so a lost wake-up surfaces as an error instead of a hang.
  std::vector<JobReport> wait_all();

  static constexpr std::chrono::seconds kWaitAllTimeout{60};

  [[nodiscard]] int nodes() const noexcept { return static_cast<int>(nodes_.size()); }

 private:
  struct Job {
    int id = -1;
    Program program;
    Bytes resume_stream;             ///< non-empty when resuming a migration
    JobReport report;
  };

  struct Node {
    std::deque<std::unique_ptr<Job>> queue;
    std::thread worker;
  };

  void worker_loop(int node_index);
  void balancer_loop(double period_seconds);
  void enqueue(int node_index, std::unique_ptr<Job> job);

  RegisterTypes register_types_;
  std::vector<Node> nodes_;

  std::mutex mu_;                        // guards queues, running state, reports
  std::condition_variable cv_;           // queue/run-state changes
  std::vector<JobReport> reports_;
  // Per-job live state, guarded by mu_: the running context (if any) and
  // a pending migration target (-1 = none).
  std::vector<mig::MigContext*> running_ctx_;
  std::vector<int> pending_target_;
  std::vector<int> job_location_;        // node index; -1 while in transit
  std::size_t jobs_done_ = 0;
  std::size_t jobs_total_ = 0;
  bool started_ = false;
  std::atomic<bool> shutdown_{false};
  std::thread balancer_;
};

}  // namespace hpm::sched
