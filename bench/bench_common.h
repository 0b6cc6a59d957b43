// Shared formatting helpers for the paper-reproduction bench harnesses.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "sim/split_sim.h"
#include "tensor/kernels.h"
#include "util/bytes.h"
#include "util/thread_pool.h"

namespace menos::bench {

/// Write `s` as a JSON string literal (quotes, backslashes and control
/// characters escaped).
inline void write_json_string(std::FILE* f, const char* s) {
  std::fputc('"', f);
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      std::fprintf(f, "\\%c", c);
    } else if (c < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

/// Write the `"environment"` member of a BENCH JSON record (two-space
/// indent, trailing comma): the host, build and thread configuration the
/// numbers were measured under. `executor_width` is the serving
/// executor's width, 0 for a bench that runs none. The ThreadPool width is
/// read at call time. Every MENOS_* variable is recorded, sorted by name.
inline void write_environment(std::FILE* f, int executor_width) {
  std::fprintf(f, "  \"environment\": {\n");
  std::fprintf(f, "    \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "    \"compiler\": \"%s\",\n", __VERSION__);
#ifdef NDEBUG
  std::fprintf(f, "    \"build\": \"release\",\n");
#else
  std::fprintf(f, "    \"build\": \"debug\",\n");
#endif
  std::fprintf(f, "    \"vector_arch\": \"%s\",\n",
               tensor::kernels::vector_arch());
  std::fprintf(f, "    \"thread_pool_width\": %d,\n",
               util::ThreadPool::instance().num_threads());
  std::fprintf(f, "    \"executor_width\": %d,\n", executor_width);
  std::vector<std::string> vars;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MENOS_", 6) == 0) vars.emplace_back(*e);
  }
  std::sort(vars.begin(), vars.end());
  std::fprintf(f, "    \"menos_env\": {");
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const std::size_t eq = vars[i].find('=');
    std::fprintf(f, "%s", i == 0 ? "" : ", ");
    write_json_string(f, vars[i].substr(0, eq).c_str());
    std::fprintf(f, ": ");
    write_json_string(f, vars[i].c_str() + eq + 1);
  }
  std::fprintf(f, "}\n  },\n");
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper reference: %s\n", paper.c_str());
  std::printf("==========================================================\n");
}

/// Render "N/A" the way the paper's tables do for infeasible points.
inline std::string cell(const sim::SimResult& r, double value) {
  if (!r.feasible) return "N/A";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

inline sim::SimConfig make_config(const sim::ModelSpec& spec,
                                  core::ServingMode mode, int clients,
                                  int iterations = 15) {
  sim::SimConfig c;
  c.spec = spec;
  c.mode = mode;
  c.num_clients = clients;
  c.iterations = iterations;
  return c;
}

}  // namespace menos::bench
