#include "eclipse/sim/coro.hpp"

namespace eclipse::sim::detail::frame_pool {

namespace {

/// Releases the calling thread's cached frames when the thread exits. Its
/// non-trivial destructor is why this object is kept off the fast paths:
/// touching it costs a TLS init guard, paid once per thread here.
struct ThreadRelease {
  ThreadRelease() { tls_lists.state = State::kLive; }
  ThreadRelease(const ThreadRelease&) = delete;
  ThreadRelease& operator=(const ThreadRelease&) = delete;
  ~ThreadRelease() {
    ThreadLists& t = tls_lists;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (FreeBlock* b = t.head[c]) {
        t.head[c] = b->next;
        ::operator delete(b, blockBytes(c));
      }
    }
    t.state = State::kRetired;
  }
};

}  // namespace

void deallocateSlow(void* p, std::size_t cls) noexcept {
  if (tls_lists.state == State::kUnregistered) {
    static thread_local ThreadRelease release;  // the pool is live from here on
    (void)release;
    deallocate(p, blockBytes(cls));
    return;
  }
  ::operator delete(p, blockBytes(cls));  // the pool is retired
}

}  // namespace eclipse::sim::detail::frame_pool
