// sigprof: a sampling CPU profiler for machines without `perf`.
//
// Build as a shared object and preload it into the program to profile
// (one shell line; see CONTRIBUTING.md):
//
//   LD_PRELOAD=build/tools/libpfci_sigprof.so SIGPROF_OUT=/tmp/m.prof
//       build/examples/mine_cli data.utd 40 0.3
//   python3 tools/sigprof/report.py /tmp/m.prof
//
// At load it arms ITIMER_PROF, which delivers SIGPROF after every
// interval of CPU time the process consumes (all threads together). The
// handler records the interrupted program counter into a fixed buffer.
// At exit the PCs and a copy of /proc/self/maps are written to
// SIGPROF_OUT (default sigprof.<pid>.out); report.py symbolises them.
// The profiler only touches its own process: the timer, the signal and
// the files are all per-process.
//
// Environment: SIGPROF_OUT (output path), SIGPROF_HZ (samples per CPU
// second, default 1000; the kernel's tick granularity caps the rate).
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr std::size_t kMaxSamples = 1 << 20;

std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_count{0};
std::atomic<std::size_t> g_dropped{0};
long g_hz = 1000;

std::uintptr_t InterruptedPc(void* context) {
  const ucontext_t* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void OnSigprof(int, siginfo_t*, void* context) {
  const std::size_t slot = g_count.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) {
    g_pcs[slot] = InterruptedPc(context);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void SetTimer(long hz) {
  itimerval timer{};
  if (hz > 0) {
    timer.it_interval.tv_sec = 0;
    timer.it_interval.tv_usec = 1000000 / hz;
    timer.it_value = timer.it_interval;
  }
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void StartProfiling() {
  if (const char* hz = std::getenv("SIGPROF_HZ")) {
    g_hz = std::strtol(hz, nullptr, 10);
    if (g_hz <= 0 || g_hz > 1000000) g_hz = 1000;
  }
  struct sigaction action {};
  action.sa_sigaction = OnSigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  SetTimer(g_hz);
}

__attribute__((destructor)) void StopProfiling() {
  SetTimer(0);
  char default_path[64];
  const char* path = std::getenv("SIGPROF_OUT");
  if (path == nullptr || *path == '\0') {
    std::snprintf(default_path, sizeof(default_path), "sigprof.%ld.out",
                  static_cast<long>(getpid()));
    path = default_path;
  }
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  const std::size_t count =
      std::min(g_count.load(std::memory_order_relaxed), kMaxSamples);
  std::fprintf(out, "# sigprof v1 hz=%ld samples=%zu dropped=%zu\n", g_hz,
               count, g_dropped.load(std::memory_order_relaxed));
  std::fprintf(out, "maps\n");
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      std::fputs(line, out);
    }
    std::fclose(maps);
  }
  std::fprintf(out, "pcs\n");
  for (std::size_t i = 0; i < count; ++i) {
    std::fprintf(out, "%lx\n", static_cast<unsigned long>(g_pcs[i]));
  }
  std::fclose(out);
}

}  // namespace
