#pragma once

#include <coroutine>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace eclipse::sim {

/// Allocation-free simulation event: a plain 32-byte value.
///
/// The kernel dispatches two kinds of work: resuming a suspended coroutine
/// (the dominant case — Delay and SimEvent wake processes this way) and
/// invoking a callback (message delivery, bus grants, walk steps). An
/// Event holds one of:
///   * a bare `std::coroutine_handle<>` — one pointer,
///   * a trivially copyable callable of at most kInlineBytes, stored in
///     the event itself.
/// Any other callable is rejected at compile time: a model that needs more
/// state keeps it in its own object and captures a pointer or an index.
///
/// Layout: 24 bytes of storage plus one function pointer, which doubles as
/// the kind tag. A null pointer means "resume the coroutine handle in the
/// storage" (or, with a null handle, an empty event); anything else invokes
/// the inline callable. Copying an event copies the 32 bytes; it owns
/// nothing, so dropping one never needs to run anything.
class Event {
 public:
  /// Largest callable an event holds: a pointer plus a 16-byte message
  /// (the putspace delivery lambda) fits.
  static constexpr std::size_t kInlineBytes = 24;

  /// What the callable constructor accepts: a void-invocable, trivially
  /// copyable type of at most kInlineBytes that is neither an Event nor a
  /// coroutine handle (those have their own paths).
  template <typename F, typename Fn = std::decay_t<F>>
  static constexpr bool Callable = !std::is_same_v<Fn, Event> &&
                                   !std::is_convertible_v<F, std::coroutine_handle<>> &&
                                   std::is_invocable_r_v<void, Fn&> &&
                                   std::is_trivially_copyable_v<Fn> &&
                                   sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*);

  Event() noexcept = default;

  /// Coroutine fast path: resuming `h` is the event.
  Event(std::coroutine_handle<> h) noexcept { set(h); }

  /// Inline callable.
  template <typename F>
    requires Callable<F>
  Event(F&& fn) noexcept {  // NOLINT(bugprone-forwarding-reference-overload)
    set(std::forward<F>(fn));
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr || storage_.coro != nullptr;
  }

  /// True when invoking resumes a coroutine (no indirect call needed).
  [[nodiscard]] bool isCoroutine() const noexcept {
    return invoke_ == nullptr && storage_.coro != nullptr;
  }

  /// Runs the event; an empty event does nothing.
  void operator()() const {
    if (invoke_ != nullptr) {
      invoke_(storage_);
    } else if (storage_.coro != nullptr) {
      std::coroutine_handle<>::from_address(storage_.coro).resume();
    }
  }

 private:
  // The event queue builds events in place in its slab nodes and runs them
  // from there (EventQueue::emplace / dispatchNext).
  friend class EventQueue;

  union Storage {
    void* coro;
    alignas(void*) unsigned char bytes[kInlineBytes];
  };

  /// Overwrites the event with `fn`.
  template <typename F>
    requires Callable<F>
  void set(F&& fn) noexcept {
    using Fn = std::decay_t<F>;
    ::new (static_cast<void*>(storage_.bytes)) Fn(std::forward<F>(fn));
    invoke_ = &invokeInline<Fn>;
  }
  void set(std::coroutine_handle<> h) noexcept {
    storage_.coro = h.address();
    invoke_ = nullptr;
  }
  void set(const Event& other) noexcept { *this = other; }

  /// Runs an inline callable from a copy: the event's storage may be
  /// reused (or, in a queue slab, moved) by what the callable schedules.
  /// The copy is made through `Fn` itself, so each capture is read back at
  /// the width it was written.
  template <typename Fn>
  static void invokeInline(const Storage& s) {
    Fn fn = *std::launder(reinterpret_cast<const Fn*>(s.bytes));
    fn();
  }

  // Zeroed, so copying an event built from a callable narrower than the
  // storage never reads unwritten bytes.
  Storage storage_{.bytes = {}};
  void (*invoke_)(const Storage&) = nullptr;  // null: coroutine handle (or empty)
};

static_assert(sizeof(Event) == 32, "Event is two per cache line");
static_assert(std::is_trivially_copyable_v<Event>, "Event is a plain value");

}  // namespace eclipse::sim
