// A callback run on the thread that raises hpm::mig::MigrationExit, at the
// moment it is raised and before any frame unwinds.
//
// The destination raises MigrationExit once restore (and, on the
// transactional path, commit) is done: that is the resume moment, and the
// restored frames are live only until the exception unwinds them.
// MigContext offers no hook at that point, so the benchmark defines the
// C++ runtime's __cxa_throw in its own executable (exit_hook.cpp). Every
// throw in the process passes through it; a MigrationExit on a thread
// with an armed hook runs the hook first, and every throw is then handed
// to the runtime's own __cxa_throw unchanged.
#pragma once

#include <functional>

namespace migbench {

/// Arms `fn` for the next MigrationExit raised on the constructing thread
/// (one shot) and disarms it on destruction. `fn` must not throw.
class ExitHook {
 public:
  explicit ExitHook(std::function<void()> fn);
  ~ExitHook();
  ExitHook(const ExitHook&) = delete;
  ExitHook& operator=(const ExitHook&) = delete;

 private:
  std::function<void()> fn_;
};

}  // namespace migbench
