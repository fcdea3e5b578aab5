// Stackful fibers — the execution primitive behind the engine (see
// engine.hpp, DESIGN.md §9).
//
// A Fiber is a cooperatively scheduled execution context with its own
// stack.  Switching between the owning thread and a fiber is a plain
// userspace register swap: on x86-64 and aarch64 a hand-rolled
// callee-saved-register switch (~tens of nanoseconds, no syscall), on
// other POSIX platforms the ucontext fallback (correct, but swapcontext
// re-loads the signal mask with a kernel call per switch).  Defining
// ATS_FIBER_FORCE_UCONTEXT selects the fallback on every platform.
//
// Rules of use (all enforced by the engine, not the class):
//  * resume() and suspend() must be called from the same OS thread; fibers
//    never migrate between threads (so thread-local state stays valid).
//  * The entry function must not let an exception escape — there is no
//    unwind information below the fiber's first frame.  Exceptions thrown
//    and caught *within* the fiber (including full-stack unwinds during
//    engine shutdown) are fine: the whole throw/catch lives on the fiber's
//    own stack.
//  * A fiber that has started but not finished holds live frames on its
//    stack; unwind it (resume it and make it return or throw) before
//    destroying it, or those frames' destructors never run.
//  * The raw switch does not save floating-point control state (MXCSR /
//    FPCR); entry code must not change rounding or exception modes.
//
// Sanitizers: under AddressSanitizer every switch is announced with
// __sanitizer_start/finish_switch_fiber, and under ThreadSanitizer each
// fiber is a TSan fiber entered with __tsan_switch_to_fiber, so both
// tools follow the stack switches.  Builds without a sanitizer compile
// none of it.
#pragma once

#include <cstddef>
#include <functional>

#if defined(ATS_FIBER_FORCE_UCONTEXT)
#define ATS_FIBER_UCONTEXT 1
#elif defined(__ELF__) && defined(__x86_64__)
#define ATS_FIBER_RAW 1
#elif defined(__ELF__) && defined(__aarch64__)
#define ATS_FIBER_RAW 1
#else
#define ATS_FIBER_UCONTEXT 1
#endif

#if defined(__SANITIZE_ADDRESS__)
#define ATS_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define ATS_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(ATS_FIBER_ASAN)
#define ATS_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(ATS_FIBER_TSAN)
#define ATS_FIBER_TSAN 1
#endif
#endif

#if defined(ATS_FIBER_UCONTEXT)
#include <ucontext.h>
#endif

namespace ats::simt {

class Fiber {
 public:
  /// Creates a fiber that will run `entry` on the caller-owned stack
  /// [stack_base, stack_base + stack_bytes) when first resumed.  Nothing
  /// runs until resume().  The stack is borrowed (see StackPool): the
  /// caller keeps it alive until the fiber is destroyed, and must not
  /// recycle it while the fiber has live frames.
  Fiber(char* stack_base, std::size_t stack_bytes,
        std::function<void()> entry);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches from the calling context into the fiber; returns when the
  /// fiber calls suspend() or its entry function returns.  Must not be
  /// called on a finished fiber.
  void resume();

  /// Called from inside the fiber: switches back to whoever called
  /// resume().  Returns when the fiber is resumed again.
  void suspend();

  /// True once the entry function has returned.  A finished fiber's stack
  /// holds no live frames and may be destroyed freely; a resumed,
  /// unfinished one must be unwound first.
  bool finished() const { return finished_; }

 private:
  friend void fiber_run_entry(Fiber* f);
  void run_entry();  // trampoline target: entry_(), then the final switch
  void switch_in();   // raw register / ucontext swap into the fiber
  void switch_out();  // ... and back to the resumer

  std::function<void()> entry_;
  char* stack_;  ///< borrowed, not owned
  std::size_t stack_bytes_;
  bool finished_ = false;

#if defined(ATS_FIBER_RAW)
  void* fiber_sp_ = nullptr;   // fiber's saved stack pointer while parked
  void* return_sp_ = nullptr;  // resumer's saved stack pointer while inside
#else
  ucontext_t fiber_ctx_{};
  ucontext_t return_ctx_{};
#endif

#if defined(ATS_FIBER_ASAN)
  void* fake_stack_ = nullptr;         // fiber's fake stack while parked
  void* return_fake_stack_ = nullptr;  // resumer's while the fiber runs
  const void* return_bottom_ = nullptr;  // resumer's stack bounds
  std::size_t return_size_ = 0;
#endif
#if defined(ATS_FIBER_TSAN)
  void* tsan_fiber_ = nullptr;   // this fiber's TSan context
  void* tsan_return_ = nullptr;  // resumer's TSan context
#endif
};

}  // namespace ats::simt
