#include "core/runtime.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "util/thread_pool.h"

namespace menos::core {

const char* serving_mode_name(ServingMode mode) noexcept {
  switch (mode) {
    case ServingMode::MenosOnDemand:            return "menos-on-demand";
    case ServingMode::MenosReleaseEarly:        return "menos-release-early";
    case ServingMode::MenosReleaseAfterBackward:return "menos-release-after-backward";
    case ServingMode::MenosPreserveAll:         return "menos-preserve-all";
    case ServingMode::VanillaTaskSwap:          return "vanilla-task-swap";
  }
  return "?";
}

bool shares_base_model(ServingMode mode) noexcept {
  return mode != ServingMode::VanillaTaskSwap;
}

bool holds_across_iteration(ServingMode mode) noexcept {
  return mode == ServingMode::MenosReleaseAfterBackward ||
         mode == ServingMode::MenosPreserveAll ||
         mode == ServingMode::VanillaTaskSwap;
}

int resolve_executor_width(int configured) {
  if (configured > 0) return std::min(configured, util::kMaxThreads);
  const int env = util::env_thread_count("MENOS_EXECUTOR_THREADS");
  if (env > 0) return env;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::min(8, std::max(1, hw));
}

net::WireTensor to_wire(const tensor::Tensor& t) {
  net::WireTensor w;
  w.shape.assign(t.shape().begin(), t.shape().end());
  w.data = t.to_vector();
  return w;
}

tensor::Tensor from_wire(const net::WireTensor& w, gpusim::Device& device,
                         bool requires_grad) {
  tensor::Shape shape(w.shape.begin(), w.shape.end());
  return tensor::Tensor::from_vector(w.data, std::move(shape), device,
                                     requires_grad);
}

}  // namespace menos::core
