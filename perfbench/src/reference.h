// A fixed reference kernel that measures how fast the host runs right now,
// independent of the library under test.
//
// The host this benchmark runs on shares its cores with other tenants and
// switches between speed regimes: the same invocation runs up to 1.7x
// slower in one minute than in the next, and a plain integer loop swings
// as much. The kernel runs after every timed step, and the end-to-end
// host times are reported at a nominal host speed: each step's times are
// scaled by kNominalMs over the median kernel time of the five steps
// around it (raw times are printed beside them). The kernel mimics the
// simulator's mix — a small event heap, exp/log math and scattered
// writes — but shares none of the library's code, so a faster library
// shows in full.
#pragma once

namespace perfbench {

/// Kernel time that the scaled figures are expressed at, in ms.
inline constexpr double kNominalMs = 25.0;

/// Run the kernel once; returns its host time in ms.
double reference_kernel_ms();

}  // namespace perfbench
