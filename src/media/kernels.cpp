#include "eclipse/media/kernels.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "kernels_impl.hpp"

namespace eclipse::media::kernels {

namespace {

bool cpuSupports(Backend b) {
  switch (b) {
    case Backend::Scalar:
      return true;
    case Backend::Avx2:
#if defined(__x86_64__) || defined(__i386__)
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const KernelTable* tableFor(Backend b) {
  switch (b) {
    case Backend::Scalar: return &detail::scalarTable();
    case Backend::Avx2: return detail::avx2Table();
  }
  return nullptr;
}

Backend bestBackend() { return available(Backend::Avx2) ? Backend::Avx2 : Backend::Scalar; }

Backend startupBackend() {
  const char* env = std::getenv("ECLIPSE_SIMD");
  if (env != nullptr && *env != '\0') {
    try {
      const Backend b = parseBackendName(env);
      if (available(b)) return b;
      std::fprintf(stderr, "eclipse: ECLIPSE_SIMD=%s not available on this machine, using %s\n",
                   env, backendName(bestBackend()));
    } catch (const std::invalid_argument&) {
      std::fprintf(stderr, "eclipse: ignoring unknown ECLIPSE_SIMD=%s (use %s)\n", env,
                   "scalar|avx2");
    }
  }
  return bestBackend();
}

}  // namespace

namespace detail {
// Startup selection runs during dynamic init; backend accessors hide their
// tables behind function-local statics so this is order-safe.
const KernelTable* g_active = tableFor(startupBackend());
}  // namespace detail

Backend backend() noexcept { return detail::g_active->backend; }

const char* backendName(Backend b) noexcept {
  switch (b) {
    case Backend::Scalar: return "scalar";
    case Backend::Avx2: return "avx2";
  }
  return "?";
}

bool available(Backend b) noexcept {
  return tableFor(b) != nullptr && cpuSupports(b);
}

std::vector<Backend> availableBackends() {
  std::vector<Backend> out;
  for (int i = 0; i < kBackendCount; ++i) {
    const Backend b = static_cast<Backend>(i);
    if (available(b)) out.push_back(b);
  }
  return out;
}

void setBackend(Backend b) {
  if (!available(b)) {
    throw std::invalid_argument(std::string("kernels::setBackend: backend not available: ") +
                                backendName(b));
  }
  detail::g_active = tableFor(b);
}

Backend parseBackendName(const std::string& name) {
  for (int i = 0; i < kBackendCount; ++i) {
    const Backend b = static_cast<Backend>(i);
    if (name == backendName(b)) return b;
  }
  throw std::invalid_argument("kernels: unknown backend name: " + name);
}

void resetBackendFromEnv() { detail::g_active = tableFor(startupBackend()); }

}  // namespace eclipse::media::kernels
