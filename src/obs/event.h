// Observability event model.
//
// Scheduler and simulator hooks emit typed events into a set of attached
// EventSinks: file writers (JSONL, Chrome trace_event), the per-heartbeat
// timeseries log, and the invariant auditor. The schema is deliberately
// flat — one fixed-size struct, no allocation on the emit path — so tracing
// costs a single branch when no sink is attached.
#pragma once

#include <cstdint>

namespace phoenix::obs {

/// Sentinel for "field not applicable to this event".
inline constexpr std::uint32_t kNoId = 0xffffffffu;

enum class EventType : std::uint8_t {
#define PHOENIX_EVENT(type, name) type,
#include "obs/event_types.def"
#undef PHOENIX_EVENT
};

inline constexpr std::size_t kNumEventTypes = 0
#define PHOENIX_EVENT(type, name) +1
#include "obs/event_types.def"
#undef PHOENIX_EVENT
    ;

/// Stable lowercase name for serialization ("probe_send", ...).
const char* EventTypeName(EventType type);

struct Event {
  double time = 0;  // simulation seconds
  EventType type = EventType::kHeartbeat;
  std::uint32_t job = kNoId;
  std::uint32_t machine = kNoId;
  std::uint32_t task = kNoId;  // task index, queue index, or CRV dimension
  double value = 0;            // type-specific payload (see EventType)
};

/// One worker's state as sampled at a heartbeat.
struct WorkerSample {
  double time = 0;
  std::uint32_t machine = 0;
  std::uint32_t queue_len = 0;
  double est_queued_work = 0;  // load signal used by placement
  double wait_estimate = 0;    // P-K E[W] estimate
  bool crv_marked = false;
  bool busy = false;
  bool failed = false;
};

/// Consumer of the event stream. Implementations must tolerate events
/// arriving in simulation-time order from a single simulation thread;
/// sinks shared across concurrent runs must lock internally (the file
/// writers do).
class EventSink {
 public:
  virtual ~EventSink();

  virtual void OnEvent(const Event& event) = 0;
  /// Heartbeat worker samples; default: ignored.
  virtual void OnWorkerSample(const WorkerSample& sample);
  /// Stream end: flush buffers, close containers.
  virtual void Flush();
};

}  // namespace phoenix::obs
