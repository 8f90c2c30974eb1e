// The one interface every baseline replay engine (Section 9 ablations)
// implements, so a runner holds any of them behind one pointer.
#pragma once

#include "common/units.hpp"

namespace choir::replay {

class Replayer {
 public:
  virtual ~Replayer() = default;

  /// Replay the recording so that its first packet targets wall-clock
  /// `wall_start`.
  virtual void schedule_replay(Ns wall_start) = 0;
};

}  // namespace choir::replay
