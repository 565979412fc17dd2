#include "exit_hook.hpp"

#include <cxxabi.h>
#include <dlfcn.h>

#include <cstdlib>
#include <typeinfo>

#include "mig/context.hpp"

namespace migbench {

namespace {

using ThrowFn = void (*)(void*, std::type_info*, void (*)(void*));

thread_local const std::function<void()>* armed = nullptr;

/// The runtime's own __cxa_throw: the next definition after this
/// executable's in symbol lookup order.
ThrowFn runtime_throw() {
  static const ThrowFn fn = reinterpret_cast<ThrowFn>(dlsym(RTLD_NEXT, "__cxa_throw"));
  return fn;
}

}  // namespace

ExitHook::ExitHook(std::function<void()> fn) : fn_(std::move(fn)) {
  if (runtime_throw() == nullptr) std::abort();  // resolved here, not inside a throw
  armed = &fn_;
}

ExitHook::~ExitHook() {
  if (armed == &fn_) armed = nullptr;
}

}  // namespace migbench

namespace __cxxabiv1 {

extern "C" void __cxa_throw(void* object, std::type_info* type, void (*destroy)(void*)) {
  if (migbench::armed != nullptr && *type == typeid(hpm::mig::MigrationExit)) {
    const std::function<void()>* fn = migbench::armed;
    migbench::armed = nullptr;  // one shot; a throw inside fn passes straight through
    (*fn)();
  }
  migbench::runtime_throw()(object, type, destroy);
  std::abort();  // the runtime's __cxa_throw does not return
}

}  // namespace __cxxabiv1
