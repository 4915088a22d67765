#include "sim/scheduler.h"

#include <cstring>
#include <utility>

#include "obs/trace.h"

namespace anufs::sim {

namespace {
// Below this many tombstones a compaction pass costs more than it frees.
constexpr std::size_t kCompactionFloor = 64;
}  // namespace

EventId Scheduler::schedule_at(SimTime at, Handler fn) {
  ANUFS_EXPECTS(at >= now_);
  ANUFS_EXPECTS(fn != nullptr);
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    ++stats_.pool_recycled;
  } else {
    slot = grow_pool();
  }
  Node& node = nodes_[slot];
  node.fn = std::move(fn);
  // anufs-lint: safe(H1) amortized: reserve() pre-sizes to peak pending,
  // steady state stays within capacity.
  heap_.push_back(Entry{at, seq, slot, node.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  stats_.peak_pending = std::max(stats_.peak_pending, pending());
  return EventId{make_id(slot, node.gen)};
}

std::uint32_t Scheduler::grow_pool() {
  const auto slot = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  ++stats_.pool_allocated;
  ANUFS_TRACE(obs::Category::kSched, "pool_grow", {"slots", nodes_.size()},
              {"pending", pending()});
  return slot;
}

bool Scheduler::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.value & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= nodes_.size()) return false;
  Node& node = nodes_[slot];
  if (node.gen != gen) return false;  // already fired or cancelled
  // Eager reclaim: the handler and whatever it captured die here, not
  // when the tombstone eventually surfaces (which may be never if the
  // run stops early or the calendar is abandoned). Advancing the slot
  // generation orphans the heap entry and immediately recycles the slot.
  node.fn = nullptr;
  ++node.gen;
  // anufs-lint: safe(H1) amortized: the free list never outgrows the
  // node pool, whose capacity it shares via reserve().
  free_slots_.push_back(slot);
  ++tombstones_;
  ++stats_.cancelled;
  maybe_compact();
  return true;
}

void Scheduler::maybe_compact() {
  if (tombstones_ < kCompactionFloor) return;
  if (tombstones_ * 2 < heap_.size()) return;
  std::erase_if(heap_, [this](const Entry& e) { return is_tombstone(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  tombstones_ = 0;
  // Give back what the tombstones held, but never the capacity reserve()
  // set up: schedule_at's no-allocation steady state depends on it.
  const std::size_t keep = std::max(heap_.size(), reserved_);
  if (heap_.capacity() > keep) {
    std::vector<Entry> fitted;
    fitted.reserve(keep);
    fitted.assign(heap_.begin(), heap_.end());
    heap_.swap(fitted);
  }
  ++stats_.compactions;
}

bool Scheduler::skip_cancelled() {
  while (!heap_.empty()) {
    if (!is_tombstone(heap_.front())) return true;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --tombstones_;
  }
  return false;
}

void Scheduler::merge_arrival_stream(const std::byte* first_time,
                                     std::size_t stride, std::size_t count,
                                     ArrivalFn fire) {
  ANUFS_EXPECTS(!arrivals_left());
  ANUFS_EXPECTS(count == 0 || fire != nullptr);
  arrival_cursor_ = first_time;
  arrival_stride_ = stride;
  arrival_next_ = 0;
  arrival_count_ = count;
  arrival_fire_ = std::move(fire);
  if (count == 0) return;
  std::memcpy(&arrival_time_, arrival_cursor_, sizeof arrival_time_);
  ANUFS_EXPECTS(arrival_time_ >= now_);
  arrival_seq_ = next_seq_++;
}

void Scheduler::fire_arrival() {
  ANUFS_ENSURES(arrival_time_ >= now_);
  now_ = arrival_time_;
  ++stats_.fired;
  arrival_fire_(arrival_next_);
  // The number a handler rescheduling the next arrival on return would
  // have drawn, so ties with calendar events keep that order.
  if (++arrival_next_ < arrival_count_) {
    arrival_cursor_ += arrival_stride_;
    std::memcpy(&arrival_time_, arrival_cursor_, sizeof arrival_time_);
    arrival_seq_ = next_seq_++;
  }
}

void Scheduler::fire_top() {
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  ANUFS_ENSURES(top.time >= now_);
  now_ = top.time;
  Node& node = nodes_[top.slot];
  ANUFS_ENSURES(node.fn != nullptr);
  Handler fn = std::move(node.fn);
  node.fn = nullptr;  // moved-from state is unspecified; make it empty
  ++node.gen;
  // Recycle before running: the handler may schedule into this very slot
  // (the common steady-state pattern), reusing it with the new generation.
  // NOTE: fn() may grow nodes_, so `node` must not be touched after this.
  // anufs-lint: safe(H1) amortized: the free list never outgrows the
  // node pool, whose capacity it shares via reserve().
  free_slots_.push_back(top.slot);
  ++stats_.fired;
  fn();
}

bool Scheduler::step() {
  const bool have_event = skip_cancelled();
  if (arrival_leads(have_event)) {
    fire_arrival();
  } else if (have_event) {
    fire_top();
  } else {
    return false;
  }
  return true;
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(SimTime horizon) {
  ANUFS_EXPECTS(horizon >= now_);
  for (;;) {
    const bool have_event = skip_cancelled();
    if (arrival_leads(have_event)) {
      if (arrival_time_ > horizon) break;
      fire_arrival();
    } else if (have_event && heap_.front().time <= horizon) {
      fire_top();
    } else {
      break;
    }
  }
  now_ = horizon;
}

}  // namespace anufs::sim
