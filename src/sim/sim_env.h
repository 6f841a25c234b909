// Deterministic cooperative discrete-event executor.
//
// Every actor in the reproduction — db_bench client threads, the LSM flush
// and compaction workers, the KVACCEL detector/rollback threads, the SSD
// firmware — is a *simulated thread*: a stackful fiber (a makecontext context
// on its own mmap'd stack) that runs on the OS thread calling Run(). The
// scheduler resumes exactly one fiber at a time, ordered by virtual wake-up
// time (ties broken by spawn order), and a fiber runs until it blocks or
// sleeps. Virtual time is a uint64 nanosecond clock that only the scheduler
// advances.
//
// This gives three properties the evaluation needs:
//  1. Determinism — identical runs produce bit-identical time series.
//  2. Speed — 600 virtual seconds of a 150 Kops/s workload executes in
//     seconds of wall-clock, because "sleeping" is just a clock jump and a
//     handoff is a user-space context switch, not an OS wakeup.
//  3. Natural blocking code — LSM/SSD code is written with ordinary
//     mutex/condvar idioms (SimMutex/SimCondVar), not callbacks.
//
// Threads may interact only through the Sim* primitives; an OS-level mutex
// held across a blocking Sim* call would deadlock the cooperative schedule.
// Independent SimEnvs may be driven concurrently from different OS threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/units.h"

namespace kvaccel::obs {
class Tracer;
}  // namespace kvaccel::obs

namespace kvaccel::sim {

// Thrown out of blocked daemon threads when the environment shuts down; the
// thread wrapper catches it. Structured shutdown (explicit stop flags) is the
// primary mechanism — this is the backstop.
struct ShutdownSignal {};

class SimMutex;
class SimCondVar;
class FaultInjector;

class SimEnv {
 public:
  struct Thread;

  SimEnv();
  ~SimEnv();
  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;

  // Current virtual time in nanoseconds.
  Nanos Now() const { return now_; }

  // Spawns a simulated thread, ready to run at the current virtual time.
  // Daemon threads do not keep Run() alive: once only daemons remain they
  // receive ShutdownSignal at their next blocking call.
  Thread* Spawn(std::string name, std::function<void()> fn,
                bool daemon = false);

  // Scheduler loop; call from the owning (non-simulated) thread, on which
  // every simulated thread then runs. Returns when every non-daemon thread
  // has finished. Throws std::runtime_error on deadlock (no runnable thread,
  // non-daemon threads still blocked); the destructor then unwinds the
  // blocked threads.
  void Run();

  // ---- Callable only from within simulated threads ----
  void SleepFor(Nanos d);
  void SleepUntil(Nanos t);
  void Yield() { SleepFor(0); }
  // Blocks until `t` finishes.
  void Join(Thread* t);

  // Environment of the simulated thread currently executing (nullptr outside).
  static SimEnv* Current();
  // Name of the currently executing simulated thread ("" outside).
  static const std::string& CurrentThreadName();

  bool shutting_down() const { return shutting_down_; }

  // Optional fault injector (see sim/fault.h). Not owned; null by default.
  // Components reach it through their SimEnv* so arming faults needs no
  // constructor plumbing.
  void set_fault_injector(FaultInjector* f) { fault_injector_ = f; }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // Optional span tracer (see obs/trace.h). Not owned; null by default, in
  // which case instrumentation sites reduce to a pointer comparison.
  // Forward-declared so sim never links against obs.
  void set_tracer(obs::Tracer* t) { tracer_ = t; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  friend class SimMutex;
  friend class SimCondVar;

  enum class State { kReady, kRunning, kBlocked, kDone };
  struct Fiber;

  static void FiberEntry() noexcept;
  // Body of every fiber: runs the thread's function, then marks it kDone,
  // wakes its joiners and switches back to the scheduler for good.
  [[noreturn]] void FiberMain(Thread* t);
  // Picks the next thread to run, makes it kRunning and advances the clock
  // to its key; nullptr when no thread is runnable.
  Thread* Dispatch();
  // Scheduler side: switches into `t` (already dispatched) and returns once
  // control comes back: a fiber finished (its stack is then unmapped) or
  // found nothing runnable.
  void Resume(Thread* t);
  // Fiber side, after parking `self`: hands the OS thread straight to the
  // next dispatched fiber (or to the scheduler when none is runnable) and
  // returns once `self` is dispatched again.
  void Suspend(Thread* self);
  void Switch(Fiber* from, Fiber* to);
  // Parks the current thread as kBlocked; with `has_deadline` the scheduler
  // resumes it at `deadline` with timed_out set. Returns with the thread
  // kRunning again.
  void BlockCurrent(Thread* self, bool has_deadline, Nanos deadline);
  // Moves a blocked thread to kReady at the current time.
  void Wake(Thread* t);
  // Marks `t` kReady at `time` and queues it.
  void MakeReady(Thread* t, Nanos time);
  void Dequeue(Thread* t);
  void CheckInSimThread() const;

  std::vector<std::unique_ptr<Thread>> threads_;  // every thread, spawn order
  // Dispatch candidates keyed by (virtual time, spawn seq): every kReady
  // thread at its wake time and every timed-out-able kBlocked thread at its
  // deadline. The running thread is never queued.
  std::set<std::tuple<Nanos, uint64_t, Thread*>> runq_;
  size_t live_ = 0;  // threads not yet kDone
  size_t live_non_daemon_ = 0;
  Nanos now_ = 0;
  bool shutting_down_ = false;
  uint64_t next_seq_ = 0;
  Fiber* sched_ = nullptr;          // context of the active Run()/destructor
  Fiber* switched_from_ = nullptr;  // context the last Switch() left
  Thread* finished_ = nullptr;      // done thread whose stack awaits unmap
  FaultInjector* fault_injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

// Cooperative mutex for simulated threads. FIFO handoff keeps scheduling
// deterministic.
class SimMutex {
 public:
  SimMutex() = default;
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  void Lock();
  void Unlock();
  // True iff held by the calling simulated thread.
  bool HeldByCurrent() const;

 private:
  friend class SimCondVar;
  void Acquire(SimEnv* env, SimEnv::Thread* self);
  void Release(SimEnv* env);

  SimEnv::Thread* owner_ = nullptr;
  std::deque<SimEnv::Thread*> waiters_;
};

class SimLockGuard {
 public:
  explicit SimLockGuard(SimMutex& m) : m_(m) { m_.Lock(); }
  ~SimLockGuard() { m_.Unlock(); }
  SimLockGuard(const SimLockGuard&) = delete;
  SimLockGuard& operator=(const SimLockGuard&) = delete;

 private:
  SimMutex& m_;
};

// Condition variable for simulated threads. Wakeups are FIFO.
class SimCondVar {
 public:
  SimCondVar() = default;
  SimCondVar(const SimCondVar&) = delete;
  SimCondVar& operator=(const SimCondVar&) = delete;

  void Wait(SimMutex& m);
  // Returns false if the timeout elapsed before a notification.
  bool WaitFor(SimMutex& m, Nanos timeout);
  void NotifyOne();
  void NotifyAll();

 private:
  std::deque<SimEnv::Thread*> waiters_;
};

}  // namespace kvaccel::sim
