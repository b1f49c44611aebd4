#pragma once

#include <coroutine>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace eclipse::sim {

/// Allocation-free simulation event, 32 bytes wide.
///
/// The kernel dispatches two kinds of work: resuming a suspended coroutine
/// (the dominant case — Delay, SimEvent, Semaphore all wake processes this
/// way) and invoking a callback (message delivery, test hooks). A
/// `std::function` would heap-allocate for almost every capture list, so
/// Event instead stores one of:
///   * a bare `std::coroutine_handle<>` — one pointer, no allocation,
///   * a small trivially-copyable callable, inline in the event itself,
///   * a heap-allocated holder, only for large or non-trivial callables.
///
/// Layout: 24 bytes of storage plus one function pointer, which doubles as
/// the kind tag. A null pointer means "resume the coroutine handle in the
/// storage" (or, with a null handle, an empty event); `invokeHeap` means the
/// storage holds a heap holder; anything else invokes an inline callable.
///
/// Events are move-only and single-shot: invoke with `operator()`, which
/// leaves the event empty.
class Event {
 public:
  /// Callables at most this large (and trivially copyable/destructible)
  /// are stored inline: a pointer plus a 16-byte message (the putspace
  /// delivery lambda) fits.
  static constexpr std::size_t kInlineBytes = 24;

  /// What the generic constructor accepts: any void-invocable other than
  /// an Event or a coroutine handle (those have their own paths).
  template <typename F>
  static constexpr bool Callable = !std::is_same_v<std::decay_t<F>, Event> &&
                                   !std::is_convertible_v<F, std::coroutine_handle<>> &&
                                   std::is_invocable_r_v<void, std::decay_t<F>&>;

  Event() noexcept { storage_.coro = nullptr; }

  /// Coroutine fast path: resuming `h` is the event.
  Event(std::coroutine_handle<> h) noexcept { storage_.coro = h.address(); }

  /// Generic callable. Small trivially-copyable callables (the common
  /// lambda capturing a pointer or a few scalars) are stored inline;
  /// anything else falls back to a single heap allocation.
  template <typename F>
    requires Callable<F>
  Event(F&& fn) {  // NOLINT(bugprone-forwarding-reference-overload)
    set(std::forward<F>(fn));
  }

  Event(Event&& other) noexcept : storage_(other.storage_), invoke_(other.invoke_) {
    other.release();
  }

  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      reset();
      storage_ = other.storage_;
      invoke_ = other.invoke_;
      other.release();
    }
    return *this;
  }

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  ~Event() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr || storage_.coro != nullptr;
  }

  /// True when invoking resumes a coroutine (no indirect call needed).
  [[nodiscard]] bool isCoroutine() const noexcept {
    return invoke_ == nullptr && storage_.coro != nullptr;
  }

  /// Runs the event once; it is empty afterwards.
  void operator()() {
    Storage s = storage_;
    void (*fn)(Storage&) = invoke_;
    release();
    if (fn != nullptr) {
      fn(s);
    } else if (s.coro != nullptr) {
      std::coroutine_handle<>::from_address(s.coro).resume();
    }
  }

 private:
  // The event queue builds events in place in its slab nodes and runs them
  // from there (EventQueue::emplace / dispatchNext).
  friend class EventQueue;

  struct HeapHolderBase {
    virtual void invoke() = 0;
    virtual ~HeapHolderBase() = default;
  };
  template <typename Fn>
  struct HeapHolder final : HeapHolderBase {
    explicit HeapHolder(Fn f) : fn(std::move(f)) {}
    void invoke() override { fn(); }
    Fn fn;
  };

  union Storage {
    void* coro;
    HeapHolderBase* heap;
    alignas(void*) unsigned char bytes[kInlineBytes];
  };

  /// Fills an empty event (nothing to release) with `fn`.
  template <typename F>
    requires Callable<F>
  void set(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (fitsInline<Fn>()) {
      // An empty callable writes no storage byte, and moving an event that
      // copies never-written storage trips -Wuninitialized: define a word.
      if constexpr (std::is_empty_v<Fn>) storage_.coro = nullptr;
      ::new (static_cast<void*>(storage_.bytes)) Fn(std::forward<F>(fn));
      invoke_ = &invokeInline<Fn>;
    } else {
      storage_.heap = new HeapHolder<Fn>(std::forward<F>(fn));
      invoke_ = &invokeHeap;
    }
  }
  void set(std::coroutine_handle<> h) noexcept {
    storage_.coro = h.address();
    invoke_ = nullptr;
  }
  void set(Event&& other) noexcept {
    storage_ = other.storage_;
    invoke_ = other.invoke_;
    other.release();
  }

  /// Runs an inline callable from a copy: the event's storage may be
  /// reused (or, in a queue slab, moved) by what the callable schedules.
  /// The copy is made through `Fn` itself, so each capture is read back at
  /// the width it was written.
  template <typename Fn>
  static void invokeInline(Storage& s) {
    Fn fn = *std::launder(reinterpret_cast<Fn*>(s.bytes));
    fn();
  }

  template <typename Fn>
  static constexpr bool fitsInline() {
    // Moving an event copies its storage bytes and destroying one never
    // runs the callable's destructor, so the inline path is restricted to
    // trivially copyable/destructible types.
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(Storage) &&
           std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;
  }

  /// Runs and releases a heap holder. Only invoked on an event that has
  /// already given up ownership (operator() and the queue's dispatch
  /// release it first), so the holder goes even when the callable throws.
  static void invokeHeap(Storage& s) {
    const std::unique_ptr<HeapHolderBase> holder(s.heap);
    holder->invoke();
  }

  /// Leaves the event empty without destroying what it held (ownership
  /// has moved elsewhere).
  void release() noexcept {
    storage_.coro = nullptr;
    invoke_ = nullptr;
  }

  void reset() noexcept {
    if (invoke_ == &invokeHeap) delete storage_.heap;
    release();
  }

  Storage storage_;
  void (*invoke_)(Storage&) = nullptr;  // null: coroutine handle (or empty)
};

static_assert(sizeof(Event) == 32, "Event is two per cache line");

}  // namespace eclipse::sim
