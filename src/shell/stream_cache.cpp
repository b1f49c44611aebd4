#include "eclipse/shell/stream_cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace eclipse::shell {

StreamCache::StreamCache(sim::Simulator& sim, mem::SharedSram& sram, std::uint32_t line_bytes,
                         std::uint32_t n_lines)
    : sim_(sim),
      sram_(sram),
      line_bytes_(line_bytes),
      line_mask_(sim::Addr{line_bytes} - 1),
      event_(sim),
      lines_(n_lines),
      fills_(n_lines) {
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

bool StreamCache::touch(Walk& w, StreamRow& row, sim::Addr addr, std::size_t len, bool writing,
                        sim::Addr prefetch_addr) {
  w.bytes = line_bytes_;
  w.done = &StreamCache::busDone;
  w.cache_ = this;
  w.row_ = &row;
  w.addr_ = addr;
  w.end_ = addr + len;
  w.prefetch_ = prefetch_addr;
  w.phase_ = Walk::Phase::Find;
  w.writing_ = writing;
  return runTouch(w);
}

bool StreamCache::flushRange(Walk& w, StreamRow& row, sim::Addr addr, std::uint64_t len) {
  if (len == 0) return false;
  w.bytes = line_bytes_;
  w.done = &StreamCache::busDone;
  w.cache_ = this;
  w.row_ = &row;
  w.addr_ = alignDown(addr);
  w.end_ = alignDown(addr + len - 1);
  w.line_ = lines_.data();
  w.phase_ = Walk::Phase::Flush;
  return runFlush(w);
}

bool StreamCache::run(Walk& w) {
  return w.phase_ >= Walk::Phase::Flush ? runFlush(w) : runTouch(w);
}

// The hit / miss / fill walk, one line at a time. Each phase is a point
// where the walk may have suspended: on the cache event (Find, Victim) or
// on an SRAM burst (Evicted, Filled).
bool StreamCache::runTouch(Walk& w) {
  using Phase = Walk::Phase;
  StreamRow& row = *w.row_;
  while (true) {
    switch (w.phase_) {
      case Phase::Find: {
        if (w.addr_ == w.end_) {
          if (w.prefetch_ != kNoPrefetch) startPrefetch(row, w.prefetch_);
          return false;
        }
        Line* l = find(alignDown(w.addr_));
        if (l != nullptr) {
          if (l->state == State::Valid) {
            ++row.cache_hits;
            l->lru = ++lru_clock_;
            w.line_ = l;
            w.phase_ = Phase::Hit;
            break;
          }
          // Pending: the prefetch (or a concurrent fill) is in flight.
          park(w);
          return true;
        }
        ++row.cache_misses;
        w.phase_ = Phase::Victim;
        [[fallthrough]];
      }
      case Phase::Victim: {
        // Evict a victim, waiting while every line is pending a fill.
        Line* l = victim();
        if (l == nullptr) {
          park(w);
          return true;
        }
        w.line_ = l;
        w.phase_ = Phase::Allocate;
        if (l->state != State::Valid) break;
        if (!l->dirty) {
          l->state = State::Invalid;
          break;
        }
        // Timing-only eviction flush: the SRAM already holds the current
        // bytes (views write through), so only the bus burst is charged.
        ++row.cache_flushes;
        w.phase_ = Phase::Evicted;
        if (sram_.postWrite(w)) return true;
        [[fallthrough]];
      }
      case Phase::Evicted:
        w.line_->dirty = false;
        w.line_->state = State::Invalid;
        [[fallthrough]];
      case Phase::Allocate: {
        Line* l = w.line_;
        const sim::Addr line_addr = alignDown(w.addr_);
        l->tag = line_addr;
        l->dirty = false;
        l->drop = false;
        l->lru = ++lru_clock_;
        if (w.writing_ && w.addr_ == line_addr && w.end_ - w.addr_ >= line_bytes_) {
          // Write-allocate without fill: the whole line will be overwritten.
          l->state = State::Valid;
          w.phase_ = Phase::Hit;
          break;
        }
        l->state = State::Pending;
        w.phase_ = Phase::Filled;
        if (sram_.postRead(w)) return true;
        [[fallthrough]];
      }
      case Phase::Filled: {
        Line* l = w.line_;
        l->state = l->drop ? State::Invalid : State::Valid;
        event_.notifyAll();
        // Invalidated while in flight: treat as a fresh miss.
        w.phase_ = l->state == State::Invalid ? Phase::Find : Phase::Hit;
        break;
      }
      case Phase::Hit:
        if (w.writing_) w.line_->dirty = true;
        w.addr_ = std::min(w.end_, alignDown(w.addr_) + line_bytes_);
        w.phase_ = Phase::Find;
        break;
      case Phase::Flush:
      case Phase::Flushed:
        return runFlush(w);
    }
  }
}

bool StreamCache::runFlush(Walk& w) {
  if (w.phase_ == Walk::Phase::Flushed) {
    w.line_->dirty = false;
    ++w.line_;
  }
  Line* const end = lines_.data() + lines_.size();
  for (; w.line_ != end; ++w.line_) {
    Line& l = *w.line_;
    if (l.state == State::Valid && l.dirty && l.tag >= w.addr_ && l.tag <= w.end_) {
      ++w.row_->cache_flushes;
      w.phase_ = Walk::Phase::Flushed;
      if (sram_.postWrite(w)) return true;
      l.dirty = false;
    }
  }
  return false;
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
  sim_.schedule(0, [fill] {
    if (!fill->cache->sram_.postRead(*fill)) fillDone(*fill);
  });
}

void StreamCache::fillDone(mem::Bus::Request& r) {
  auto& fill = static_cast<Fill&>(r);
  Line& line = *fill.line;
  line.state = line.drop ? State::Invalid : State::Valid;
  fill.cache->event_.notifyAll();
}

}  // namespace eclipse::shell
