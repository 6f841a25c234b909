#include "sim/sim_env.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#define KVACCEL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KVACCEL_ASAN 1
#endif
#endif
#ifdef KVACCEL_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace kvaccel::sim {
namespace {

thread_local SimEnv* tls_env = nullptr;
thread_local SimEnv::Thread* tls_current = nullptr;

const std::string kEmptyName;

// Same as the glibc pthread default, so simulated code keeps the stack depth
// it had when every simulated thread was an OS thread.
constexpr size_t kFiberStackBytes = size_t{8} << 20;

// ASan tracks one stack per OS thread; every switch between fiber stacks is
// announced so it neither reports frames on the other stack nor loses the
// fake stack of a suspended fiber. No-ops in other builds.
void StartSwitch(void** fake_stack_save, const void* bottom, size_t size) {
#ifdef KVACCEL_ASAN
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save, (void)bottom, (void)size;
#endif
}

void FinishSwitch(void* fake_stack_save, const void** bottom_old,
                  size_t* size_old) {
#ifdef KVACCEL_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
  (void)fake_stack_save, (void)bottom_old, (void)size_old;
#endif
}

}  // namespace

// A saved execution context: a fiber's, or the scheduler's (which runs on the
// OS thread's own stack and owns no mapping; ASan reports its bounds on the
// first switch away from it).
struct SimEnv::Fiber {
  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber() {
    if (map != nullptr) munmap(map, map_bytes);
  }

  // Maps an 8 MB stack above a PROT_NONE guard page (so an overflow faults
  // instead of corrupting a neighbour) and points `ctx` at FiberEntry on it.
  void MapStack() {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    map_bytes = kFiberStackBytes + page;
    void* m = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (m == MAP_FAILED) throw std::runtime_error("SimEnv: fiber stack mmap");
    map = m;
    if (mprotect(map, page, PROT_NONE) != 0) {
      throw std::runtime_error("SimEnv: fiber guard page mprotect");
    }
    stack_bottom = static_cast<char*>(map) + page;
    stack_size = kFiberStackBytes;
#ifdef KVACCEL_ASAN
    // A recycled address range may carry poisoned shadow from the frames an
    // earlier fiber never returned from.
    ASAN_UNPOISON_MEMORY_REGION(stack_bottom, kFiberStackBytes);
#endif
    getcontext(&ctx);
    ctx.uc_stack.ss_sp = static_cast<char*>(map) + page;
    ctx.uc_stack.ss_size = kFiberStackBytes;
    ctx.uc_link = nullptr;
    makecontext(&ctx, &SimEnv::FiberEntry, 0);
    // Only makecontext reads uc_stack. Clearing it stops ASan's swapcontext
    // interceptor from wiping the whole stack's shadow on every switch; the
    // annotations above describe the stack instead.
    ctx.uc_stack = stack_t{};
  }

  ucontext_t ctx{};
  void* map = nullptr;
  size_t map_bytes = 0;
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
  void* asan_fake_stack = nullptr;
};

struct SimEnv::Thread {
  std::string name;
  uint64_t seq = 0;
  bool daemon = false;
  std::function<void()> fn;
  State state = State::kReady;
  Nanos wake_time = 0;        // when kReady: earliest virtual run time
  bool has_deadline = false;  // when kBlocked: timed wait in progress
  Nanos deadline = 0;
  bool timed_out = false;     // set by scheduler when a timed wait expires
  std::vector<Thread*> joiners;
  std::unique_ptr<Fiber> fiber;  // released (stack unmapped) once kDone
};

SimEnv::SimEnv() = default;

SimEnv::~SimEnv() {
  // Normal lifecycle: Run() already drove every thread to kDone. If Run() was
  // never called (or threw), resume each unfinished fiber once: a blocked one
  // unwinds via ShutdownSignal, one that never started skips its body.
  shutting_down_ = true;
  Fiber sched;
  sched_ = &sched;
  for (size_t i = 0; i < threads_.size(); i++) {
    Thread* t = threads_[i].get();
    if (t->state == State::kDone) continue;
    Dequeue(t);
    t->state = State::kRunning;
    Resume(t);  // the fiber unwinds without blocking, so only it runs
    assert(t->state == State::kDone && "fiber blocked during shutdown");
  }
  sched_ = nullptr;
}

SimEnv* SimEnv::Current() { return tls_env; }

const std::string& SimEnv::CurrentThreadName() {
  return tls_current != nullptr ? tls_current->name : kEmptyName;
}

void SimEnv::CheckInSimThread() const {
  assert(tls_env == this && tls_current != nullptr &&
         "Sim primitive called outside a simulated thread");
}

SimEnv::Thread* SimEnv::Spawn(std::string name, std::function<void()> fn,
                              bool daemon) {
  auto t = std::make_unique<Thread>();
  t->name = std::move(name);
  t->seq = next_seq_++;
  t->daemon = daemon;
  t->fn = std::move(fn);
  t->fiber = std::make_unique<Fiber>();
  t->fiber->MapStack();
  Thread* raw = t.get();
  threads_.push_back(std::move(t));
  MakeReady(raw, Now());
  live_++;
  if (!daemon) live_non_daemon_++;
  return raw;
}

// noexcept: an exception other than ShutdownSignal escaping a simulated
// thread cannot unwind past the context boundary, so it ends the program.
void SimEnv::FiberEntry() noexcept { tls_env->FiberMain(tls_current); }

void SimEnv::FiberMain(Thread* t) {
  FinishSwitch(nullptr, &switched_from_->stack_bottom,
               &switched_from_->stack_size);
  if (!shutting_down_) {
    try {
      t->fn();
    } catch (const ShutdownSignal&) {
      // Cooperative teardown of a daemon/abandoned thread.
    }
  }
  t->state = State::kDone;
  live_--;
  if (!t->daemon) live_non_daemon_--;
  for (Thread* j : t->joiners) Wake(j);
  t->joiners.clear();
  // Final switch: a null save slot tells ASan to drop this fiber's fake
  // stack. The scheduler unmaps the stack once it is off it.
  finished_ = t;
  switched_from_ = t->fiber.get();
  StartSwitch(nullptr, sched_->stack_bottom, sched_->stack_size);
  setcontext(&sched_->ctx);
  std::abort();  // setcontext returns only on failure
}

SimEnv::Thread* SimEnv::Dispatch() {
  if (live_non_daemon_ == 0) shutting_down_ = true;
  Thread* next = nullptr;
  if (shutting_down_) {
    // Every live thread is dispatched, in spawn order, so it can observe
    // ShutdownSignal.
    for (const auto& t : threads_) {
      if (t->state != State::kDone) {
        next = t.get();
        break;
      }
    }
    Dequeue(next);
  } else if (!runq_.empty()) {
    Nanos time = std::get<0>(*runq_.begin());
    next = std::get<2>(*runq_.begin());
    runq_.erase(runq_.begin());
    if (time > Now()) now_ = time;
  } else {
    return nullptr;
  }
  if (next->state == State::kBlocked) {
    // Timed wait expired (or shutdown is flushing a blocked thread).
    next->timed_out = next->has_deadline;
    next->has_deadline = false;
  }
  next->state = State::kRunning;
  return next;
}

void SimEnv::Switch(Fiber* from, Fiber* to) {
  StartSwitch(&from->asan_fake_stack, to->stack_bottom, to->stack_size);
  switched_from_ = from;
  swapcontext(&from->ctx, &to->ctx);
  FinishSwitch(from->asan_fake_stack, &switched_from_->stack_bottom,
               &switched_from_->stack_size);
}

void SimEnv::Resume(Thread* t) {
  SimEnv* outer_env = tls_env;
  Thread* outer_thread = tls_current;
  tls_env = this;
  tls_current = t;
  Switch(sched_, t->fiber.get());
  tls_env = outer_env;
  tls_current = outer_thread;
  if (finished_ != nullptr) {
    finished_->fiber.reset();
    finished_ = nullptr;
  }
}

void SimEnv::Suspend(Thread* self) {
  Thread* next = Dispatch();
  if (next == self) return;
  Fiber* to = sched_;
  if (next != nullptr) {
    tls_current = next;
    to = next->fiber.get();
  }
  Switch(self->fiber.get(), to);
}

void SimEnv::MakeReady(Thread* t, Nanos time) {
  t->state = State::kReady;
  t->wake_time = time;
  runq_.emplace(time, t->seq, t);
}

void SimEnv::Dequeue(Thread* t) {
  if (t->state == State::kReady) {
    runq_.erase({t->wake_time, t->seq, t});
  } else if (t->state == State::kBlocked && t->has_deadline) {
    runq_.erase({t->deadline, t->seq, t});
  }
}

void SimEnv::SleepUntil(Nanos t) {
  CheckInSimThread();
  Thread* self = tls_current;
  if (shutting_down_) throw ShutdownSignal{};
  Nanos wake = std::max(t, Now());
  if (runq_.empty() || std::tuple(wake, self->seq, self) < *runq_.begin()) {
    // Fast path: no other runnable thread would execute before `wake`, so
    // advancing the clock in place is equivalent to a full reschedule.
    now_ = wake;
    return;
  }
  MakeReady(self, wake);
  Suspend(self);
  if (shutting_down_) throw ShutdownSignal{};
}

void SimEnv::SleepFor(Nanos d) { SleepUntil(Now() + d); }

void SimEnv::BlockCurrent(Thread* self, bool has_deadline, Nanos deadline) {
  if (shutting_down_) throw ShutdownSignal{};
  self->state = State::kBlocked;
  self->has_deadline = has_deadline;
  self->deadline = deadline;
  self->timed_out = false;
  if (has_deadline) runq_.emplace(deadline, self->seq, self);
  Suspend(self);
  if (shutting_down_) throw ShutdownSignal{};
}

void SimEnv::Wake(Thread* t) {
  if (t->state != State::kBlocked) return;
  Dequeue(t);
  t->has_deadline = false;
  MakeReady(t, Now());
}

void SimEnv::Join(Thread* t) {
  CheckInSimThread();
  if (t->state == State::kDone) return;
  t->joiners.push_back(tls_current);
  BlockCurrent(tls_current, false, 0);
}

void SimEnv::Run() {
  Fiber sched;
  sched_ = &sched;
  while (live_ > 0) {
    Thread* next = Dispatch();
    if (next == nullptr) {
      std::string who;
      for (const auto& t : threads_) {
        if (t->state != State::kDone) {
          if (!who.empty()) who += ", ";
          who += t->name;
        }
      }
      sched_ = nullptr;
      throw std::runtime_error("SimEnv deadlock: blocked threads [" + who +
                               "] with no runnable candidate");
    }
    Resume(next);
  }
  sched_ = nullptr;
}

// ---------------- SimMutex ----------------

void SimMutex::Acquire(SimEnv* env, SimEnv::Thread* self) {
  if (env->shutting_down()) {
    // Teardown: ownership discipline no longer matters; let unwinding guards
    // pair up without blocking on threads that will never run again.
    owner_ = self;
    return;
  }
  assert(owner_ != self && "recursive SimMutex lock");
  if (owner_ == nullptr) {
    owner_ = self;
    return;
  }
  waiters_.push_back(self);
  env->BlockCurrent(self, false, 0);
  assert(owner_ == self);
}

void SimMutex::Release(SimEnv* env) {
  if (owner_ != tls_current && env->shutting_down()) {
    // A guard unwinding through ShutdownSignal may not actually hold the
    // mutex (e.g. interrupted inside SimCondVar::Wait before re-acquiring).
    return;
  }
  assert(owner_ == tls_current && "unlocking a SimMutex not held");
  // FIFO handoff; skip any waiter flushed by shutdown.
  while (!waiters_.empty()) {
    SimEnv::Thread* next = waiters_.front();
    waiters_.pop_front();
    if (next->state == SimEnv::State::kBlocked) {
      owner_ = next;
      env->Wake(next);
      return;
    }
  }
  owner_ = nullptr;
}

void SimMutex::Lock() {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  Acquire(env, tls_current);
}

void SimMutex::Unlock() {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  Release(env);
}

bool SimMutex::HeldByCurrent() const { return owner_ == tls_current; }

// ---------------- SimCondVar ----------------

void SimCondVar::Wait(SimMutex& m) {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  SimEnv::Thread* self = tls_current;
  waiters_.push_back(self);
  m.Release(env);
  env->BlockCurrent(self, false, 0);
  m.Acquire(env, self);
}

bool SimCondVar::WaitFor(SimMutex& m, Nanos timeout) {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  SimEnv::Thread* self = tls_current;
  waiters_.push_back(self);
  m.Release(env);
  env->BlockCurrent(self, true, env->Now() + timeout);
  if (self->timed_out) {
    auto it = std::find(waiters_.begin(), waiters_.end(), self);
    if (it != waiters_.end()) waiters_.erase(it);
  }
  m.Acquire(env, self);
  return !self->timed_out;
}

void SimCondVar::NotifyOne() {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  while (!waiters_.empty()) {
    SimEnv::Thread* t = waiters_.front();
    waiters_.pop_front();
    if (t->state == SimEnv::State::kBlocked) {
      env->Wake(t);
      return;
    }
  }
}

void SimCondVar::NotifyAll() {
  SimEnv* env = SimEnv::Current();
  assert(env != nullptr);
  while (!waiters_.empty()) {
    SimEnv::Thread* t = waiters_.front();
    waiters_.pop_front();
    if (t->state == SimEnv::State::kBlocked) env->Wake(t);
  }
}

}  // namespace kvaccel::sim
