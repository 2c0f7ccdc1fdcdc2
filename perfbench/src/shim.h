#pragma once

/// \file shim.h
/// Support for the traced binary's interposing definitions (src/shims/).
/// Each shim defines one public function of the program with its exact
/// signature; the dynamic linker binds every call the shared program
/// library makes to that symbol to the shim, which opens a span and calls
/// the library's own definition, found with dlsym(RTLD_NEXT). Member
/// functions are called through a plain function pointer taking `this`
/// first — the Itanium C++ ABI passes it that way on x86-64 and AArch64,
/// including for the trivially copyable structs returned in memory here.

#include <dlfcn.h>

#include <cstdio>
#include <cstdlib>

#include "spans.h"

namespace perfbench {

/// The program library's definition of the interposed symbol `mangled`.
template <typename Fn>
Fn real_symbol(const char* mangled) {
  void* p = dlsym(RTLD_NEXT, mangled);
  if (p == nullptr) {
    std::fprintf(stderr, "perfbench: no library definition of %s\n", mangled);
    std::abort();
  }
  return reinterpret_cast<Fn>(p);
}

}  // namespace perfbench
