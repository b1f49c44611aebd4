// libeclipse_prof — a host-side PC sampler, loaded into any binary with
// LD_PRELOAD. It needs no instrumentation in the program it samples.
//
//   export ECLIPSE_PROF_OUT=prof.txt
//   LD_PRELOAD=build/tools/prof/libeclipse_prof.so build/examples/sim_driver
//   python3 tools/prof/symbolize.py prof.txt
//
// While ECLIPSE_PROF_OUT is set, an ITIMER_PROF timer raises SIGPROF for
// every kInterval of CPU time the process spends, and the handler records
// the interrupted program counter. At normal exit the samples and a copy
// of /proc/self/maps go to the ECLIPSE_PROF_OUT path, so symbolize.py can
// map each PC back to a symbol after the process is gone.
//
// The kernel delivers the timer on its scheduler tick, so the tick caps
// the rate: 1 ms requested gives about 250 samples per CPU-second on a
// kernel built with HZ=250. A process that ends through _exit, a signal
// or exec writes nothing. Every process that loads the library writes the
// same path at exit, so preload it into the program itself, not into a
// launcher that spawns it.

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr long kIntervalUs = 1000;
constexpr std::size_t kMaxSamples = std::size_t{1} << 18;  // ~17 CPU-minutes at 250/s

std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_taken{0};  // samples attempted, kept or not

void onProf(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "libeclipse_prof reads the PC on x86-64 and AArch64 only"
#endif
  const std::size_t i = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = pc;
}

void setTimer(long us) {
  itimerval t{};
  t.it_interval.tv_usec = us;
  t.it_value.tv_usec = us;
  setitimer(ITIMER_PROF, &t, nullptr);
}

__attribute__((constructor)) void start() {
  if (std::getenv("ECLIPSE_PROF_OUT") == nullptr) return;
  struct sigaction sa {};
  sa.sa_sigaction = onProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  setTimer(kIntervalUs);
}

__attribute__((destructor)) void finish() {
  const char* path = std::getenv("ECLIPSE_PROF_OUT");
  if (path == nullptr) return;
  setTimer(0);
  signal(SIGPROF, SIG_IGN);

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::perror("libeclipse_prof: ECLIPSE_PROF_OUT");
    return;
  }
  const std::size_t taken = g_taken.load(std::memory_order_relaxed);
  const std::size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
  std::fprintf(out, "eclipse-prof 1 interval_us=%ld samples=%zu dropped=%zu\nmaps\n",
               kIntervalUs, kept, taken - kept);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, maps)) > 0) std::fwrite(buf, 1, n, out);
    std::fclose(maps);
  }
  std::fprintf(out, "pcs\n");
  for (std::size_t i = 0; i < kept; ++i) std::fprintf(out, "%" PRIxPTR "\n", g_pcs[i]);
  std::fclose(out);
}

}  // namespace
