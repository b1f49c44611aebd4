#include "eclipse/shell/stream_cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace eclipse::shell {

StreamCache::Line* StreamCache::find(sim::Addr line_addr) {
  for (auto& l : lines_) {
    if (l.state != State::Invalid && l.tag == line_addr) return &l;
  }
  return nullptr;
}

sim::Task<StreamCache::Line*> StreamCache::victim(StreamRow& row) {
  while (true) {
    Line* best = nullptr;
    for (auto& l : lines_) {
      if (l.state == State::Invalid) {
        co_return &l;
      }
      if (l.state == State::Valid && (best == nullptr || l.lru < best->lru)) best = &l;
    }
    if (best != nullptr) {
      if (best->dirty) {
        // Timing-only eviction flush: the SRAM already holds the current
        // bytes (views write through), so only the bus burst is charged.
        ++row.cache_flushes;
        co_await sram_.touchWrite(line_bytes_);
        best->dirty = false;
      }
      best->state = State::Invalid;
      co_return best;
    }
    // Every line is pending a prefetch fill; wait for one to land.
    co_await event_.wait();
  }
}

sim::Task<StreamCache::Line*> StreamCache::acquire(StreamRow& row, sim::Addr line_addr,
                                                   bool whole_line_write) {
  while (true) {
    Line* l = find(line_addr);
    if (l == nullptr) break;
    if (l->state == State::Valid) {
      ++row.cache_hits;
      l->lru = ++lru_clock_;
      co_return l;
    }
    // Pending: the prefetch (or a concurrent fill) is in flight.
    co_await event_.wait();
  }
  ++row.cache_misses;
  Line* l = co_await victim(row);
  l->tag = line_addr;
  l->dirty = false;
  l->drop = false;
  l->lru = ++lru_clock_;
  if (whole_line_write) {
    // Write-allocate without fill: the whole line will be overwritten.
    auto d = lineData(l);
    std::fill(d.begin(), d.end(), 0);
    l->state = State::Valid;
    co_return l;
  }
  l->state = State::Pending;
  co_await sram_.read(line_addr, lineData(l));
  l->state = l->drop ? State::Invalid : State::Valid;
  event_.notifyAll();
  if (l->state == State::Invalid) {
    // Invalidated while in flight; treat as a fresh miss.
    co_return co_await acquire(row, line_addr, whole_line_write);
  }
  co_return l;
}

sim::Task<void> StreamCache::touchRead(StreamRow& row, sim::Addr addr, std::size_t len,
                                       std::optional<sim::Addr> prefetch_addr) {
  std::size_t done = 0;
  while (done < len) {
    const sim::Addr line_addr = alignDown(addr + done);
    const std::size_t in_line = static_cast<std::size_t>(addr + done - line_addr);
    const std::size_t n = std::min(len - done, static_cast<std::size_t>(line_bytes_) - in_line);
    co_await acquire(row, line_addr, /*whole_line_write=*/false);
    done += n;
  }
  if (prefetch_addr.has_value()) startPrefetch(row, *prefetch_addr);
}

sim::Task<void> StreamCache::touchWrite(StreamRow& row, sim::Addr addr, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const sim::Addr line_addr = alignDown(addr + done);
    const std::size_t in_line = static_cast<std::size_t>(addr + done - line_addr);
    const std::size_t n = std::min(len - done, static_cast<std::size_t>(line_bytes_) - in_line);
    const bool whole = in_line == 0 && n == line_bytes_;
    Line* l = co_await acquire(row, line_addr, whole);
    l->dirty = true;
    done += n;
  }
}

sim::Task<void> StreamCache::flushRange(StreamRow& row, sim::Addr addr, std::uint64_t len) {
  if (len == 0) co_return;
  const sim::Addr first = alignDown(addr);
  const sim::Addr last = alignDown(addr + len - 1);
  for (auto& l : lines_) {
    if (l.state == State::Valid && l.dirty && l.tag >= first && l.tag <= last) {
      ++row.cache_flushes;
      co_await sram_.touchWrite(line_bytes_);
      l.dirty = false;
    }
  }
}

void StreamCache::invalidateRange(StreamRow& row, sim::Addr addr, std::uint64_t len) {
  if (len == 0) return;
  const sim::Addr first = alignDown(addr);
  const sim::Addr last = alignDown(addr + len - 1);
  for (auto& l : lines_) {
    if (l.state == State::Invalid || l.tag < first || l.tag > last) continue;
    if (l.state == State::Valid) {
      if (l.dirty) {
        throw std::logic_error("StreamCache: invalidating a dirty line — window protocol violated");
      }
      l.state = State::Invalid;
      ++row.cache_invalidations;
    } else {
      // In-flight fill for a superseded window: drop the data on arrival.
      l.drop = true;
      ++row.cache_invalidations;
    }
  }
}

void StreamCache::startPrefetch(StreamRow& row, sim::Addr line_addr) {
  if (find(line_addr) != nullptr) return;
  ++row.prefetches;
  // Allocate the line synchronously (so a second prefetch of the same
  // address is suppressed) but fill it in a background process.
  Line* target = nullptr;
  for (auto& l : lines_) {
    if (l.state == State::Invalid) {
      target = &l;
      break;
    }
  }
  if (target == nullptr) {
    // No free line and eviction may need a timed flush; cheapest policy:
    // evict the LRU *clean* valid line, otherwise skip the prefetch.
    Line* best = nullptr;
    for (auto& l : lines_) {
      if (l.state == State::Valid && !l.dirty && (best == nullptr || l.lru < best->lru)) best = &l;
    }
    if (best == nullptr) return;
    target = best;
  }
  target->state = State::Pending;
  target->tag = line_addr;
  target->dirty = false;
  target->drop = false;
  target->lru = ++lru_clock_;
  sim_.spawn(prefetchTask(row, target), "prefetch");
}

sim::Task<void> StreamCache::prefetchTask(StreamRow& row, Line* line) {
  (void)row;
  co_await sram_.read(line->tag, lineData(line));
  line->state = line->drop ? State::Invalid : State::Valid;
  event_.notifyAll();
}

}  // namespace eclipse::shell
