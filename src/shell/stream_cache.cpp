#include "eclipse/shell/stream_cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace eclipse::shell {

StreamCache::StreamCache(sim::Simulator& sim, mem::SharedSram& sram, std::uint32_t line_bytes,
                         std::uint32_t n_lines)
    : sim_(sim), sram_(sram), line_bytes_(line_bytes), event_(sim), lines_(n_lines), fills_(n_lines) {
  for (std::size_t i = 0; i < fills_.size(); ++i) {
    fills_[i].bytes = line_bytes_;
    fills_[i].done = &StreamCache::fillDone;
    fills_[i].cache = this;
    fills_[i].line = &lines_[i];
  }
}

StreamCache::Line* StreamCache::find(sim::Addr line_addr) {
  for (auto& l : lines_) {
    if (l.state != State::Invalid && l.tag == line_addr) return &l;
  }
  return nullptr;
}

StreamCache::Line* StreamCache::victim() {
  Line* best = nullptr;
  for (auto& l : lines_) {
    if (l.state == State::Invalid) return &l;
    if (l.state == State::Valid && (best == nullptr || l.lru < best->lru)) best = &l;
  }
  return best;
}

sim::Task<void> StreamCache::touch(StreamRow& row, sim::Addr addr, std::size_t len, bool writing,
                                   std::optional<sim::Addr> prefetch_addr) {
  std::size_t done = 0;
  while (done < len) {
    const sim::Addr line_addr = alignDown(addr + done);
    const std::size_t in_line = static_cast<std::size_t>(addr + done - line_addr);
    const std::size_t n = std::min(len - done, static_cast<std::size_t>(line_bytes_) - in_line);
    Line* l = nullptr;
    while (l == nullptr) {
      l = find(line_addr);
      if (l != nullptr) {
        if (l->state == State::Valid) {
          ++row.cache_hits;
          l->lru = ++lru_clock_;
          break;
        }
        // Pending: the prefetch (or a concurrent fill) is in flight.
        l = nullptr;
        co_await event_.wait();
        continue;
      }
      ++row.cache_misses;
      // Evict a victim, waiting while every line is pending a fill.
      while ((l = victim()) == nullptr) co_await event_.wait();
      if (l->state == State::Valid) {
        if (l->dirty) {
          // Timing-only eviction flush: the SRAM already holds the current
          // bytes (views write through), so only the bus burst is charged.
          ++row.cache_flushes;
          co_await sram_.touchWrite(line_bytes_);
          l->dirty = false;
        }
        l->state = State::Invalid;
      }
      l->tag = line_addr;
      l->dirty = false;
      l->drop = false;
      l->lru = ++lru_clock_;
      if (writing && in_line == 0 && n == line_bytes_) {
        // Write-allocate without fill: the whole line will be overwritten.
        l->state = State::Valid;
        break;
      }
      l->state = State::Pending;
      co_await sram_.touchRead(line_bytes_);
      l->state = l->drop ? State::Invalid : State::Valid;
      event_.notifyAll();
      // Invalidated while in flight: treat as a fresh miss.
      if (l->state == State::Invalid) l = nullptr;
    }
    if (writing) l->dirty = true;
    done += n;
  }
  if (prefetch_addr.has_value()) startPrefetch(row, *prefetch_addr);
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
  // address is suppressed) but fill it in the background.
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
  // The fill starts as a zero-delay event, like a freshly spawned process.
  Fill* fill = &fills_[static_cast<std::size_t>(target - lines_.data())];
  sim_.schedule(0, [fill] { fill->cache->sram_.touchRead(*fill); });
}

void StreamCache::fillDone(mem::Bus::Request& r) {
  auto& fill = static_cast<Fill&>(r);
  Line& line = *fill.line;
  line.state = line.drop ? State::Invalid : State::Valid;
  fill.cache->event_.notifyAll();
}

}  // namespace eclipse::shell
