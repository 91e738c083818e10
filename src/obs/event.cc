#include "obs/event.h"

namespace phoenix::obs {

EventSink::~EventSink() = default;
void EventSink::OnWorkerSample(const WorkerSample&) {}
void EventSink::Flush() {}

const char* EventTypeName(EventType type) {
  static constexpr const char* kNames[kNumEventTypes] = {
#define PHOENIX_EVENT(type, name) name,
#include "obs/event_types.def"
#undef PHOENIX_EVENT
  };
  const auto i = static_cast<std::size_t>(type);
  return i < kNumEventTypes ? kNames[i] : "?";
}

}  // namespace phoenix::obs
