#include "src/perf/perf_counters.h"

#include <cstring>

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace ensemble {

namespace {
int OpenCounter(uint32_t type, uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}
}  // namespace

PerfCounterGroup::PerfCounterGroup() {
  struct Spec {
    const char* name;
    uint32_t type;
    uint64_t config;
  };
  const Spec specs[] = {
      {"cpu_cycles", PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
      {"instructions", PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
      {"cache_references", PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
      {"cache_misses", PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
      {"branch_instructions", PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS},
      {"dtlb_misses", PERF_TYPE_HW_CACHE,
       PERF_COUNT_HW_CACHE_DTLB | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
           (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
  };
  for (const Spec& spec : specs) {
    int fd = OpenCounter(spec.type, spec.config);
    if (fd >= 0) {
      fds_.push_back(fd);
      names_.push_back(spec.name);
    }
  }
}

PerfCounterGroup::~PerfCounterGroup() {
  for (int fd : fds_) {
    close(fd);
  }
}

void PerfCounterGroup::Start() {
  for (int fd : fds_) {
    ioctl(fd, PERF_EVENT_IOC_RESET, 0);
    ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
  }
}

std::vector<PerfCounterGroup::Reading> PerfCounterGroup::Stop() {
  std::vector<Reading> out;
  for (size_t i = 0; i < fds_.size(); i++) {
    ioctl(fds_[i], PERF_EVENT_IOC_DISABLE, 0);
    uint64_t value = 0;
    if (read(fds_[i], &value, sizeof(value)) == sizeof(value)) {
      out.push_back({names_[i], value});
    }
  }
  return out;
}

}  // namespace ensemble
