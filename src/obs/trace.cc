#include "src/obs/trace.h"

#include <algorithm>

namespace demos {

void Tracer::SortByTime() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const EventRecord& a, const EventRecord& b) { return a.ts < b.ts; });
}

}  // namespace demos
