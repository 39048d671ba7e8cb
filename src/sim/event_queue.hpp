// The gate-level simulator's event queue: an arena-backed binary min-heap
// on (time, seq).
//
// Pop order is a TOTAL order on (time, seq): seq is unique per event, so
// the pop sequence — and with it every simulation artifact (fingerprints,
// violation text, VCD witnesses) — is fixed by the events pushed, never by
// the queue's internal layout.  Table-2 circuits keep at most a few dozen
// events pending, where two hot cache lines of heap beat any bucketed
// structure (DESIGN §11 records the measurement).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace nshot::sim {

enum class EventKind : std::uint8_t { kNetChange, kMhsProbe };

// 32 bytes — the heap moves events by value, so layout is throughput.
// `generation` wraps mod 2^32: a stale inertial event could alias the live
// generation only after 2^32 cancellations of one gate while it sits
// queued, which needs a >4-billion-event trial.
struct Event {
  double time;
  std::uint64_t seq;  // FIFO tie-break
  std::int32_t target;       // net id, or gate id for probes
  std::uint32_t generation;  // for cancellable inertial events
  EventKind kind;
  bool value;  // net change value

  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Binary min-heap on (time, seq); clear() keeps the arena's capacity
/// across Simulator::reset().
class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Event& top() const { return heap_.front(); }
  void push(const Event& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
  }
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
    heap_.pop_back();
  }
  void clear() { heap_.clear(); }

 private:
  std::vector<Event> heap_;
};

}  // namespace nshot::sim
