#include "tensor/tensor.h"

#include <cstring>
#include <sstream>

#include "tensor/autograd.h"

namespace menos::tensor {

Index numel_of(const Shape& shape) {
  Index n = 1;
  for (Index d : shape) {
    MENOS_CHECK_MSG(d >= 0, "negative dimension in shape");
    n *= d;
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Storage::Storage(gpusim::Device& device, Index numel)
    : device_(&device), numel_(numel) {
  MENOS_CHECK_MSG(numel >= 0, "negative storage size");
  data_ = static_cast<float*>(
      device.allocate(static_cast<std::size_t>(numel) * sizeof(float)));
}

Storage::~Storage() {
  device_->deallocate(data_, static_cast<std::size_t>(numel_) * sizeof(float));
}

TensorImpl::TensorImpl(std::shared_ptr<Storage> storage_in, Shape shape_in,
                       bool requires_grad_in)
    : storage(std::move(storage_in)),
      shape(std::move(shape_in)),
      requires_grad(requires_grad_in) {
  MENOS_CHECK_MSG(storage == nullptr || numel_of(shape) == storage->numel(),
                  "shape " << shape_to_string(shape)
                           << " does not match storage size");
}

Tensor Tensor::empty(Shape shape, gpusim::Device& device, bool requires_grad) {
  auto storage = std::make_shared<Storage>(device, numel_of(shape));
  return Tensor(std::make_shared<TensorImpl>(std::move(storage),
                                             std::move(shape), requires_grad));
}

Tensor Tensor::zeros(Shape shape, gpusim::Device& device, bool requires_grad) {
  Tensor t = empty(std::move(shape), device, requires_grad);
  std::memset(t.data(), 0, t.bytes());
  return t;
}

Tensor Tensor::full(Shape shape, float value, gpusim::Device& device,
                    bool requires_grad) {
  Tensor t = empty(std::move(shape), device, requires_grad);
  float* p = t.data();
  const Index n = t.numel();
  for (Index i = 0; i < n; ++i) p[i] = value;
  return t;
}

Tensor Tensor::from_span(const float* data, Index n, Shape shape,
                         gpusim::Device& device, bool requires_grad) {
  MENOS_CHECK_MSG(n == numel_of(shape),
                  "data size " << n << " does not match shape "
                               << shape_to_string(shape));
  Tensor t = empty(std::move(shape), device, requires_grad);
  // An empty span may come with a null pointer, which memcpy must not see.
  if (n > 0) {
    std::memcpy(t.data(), data, static_cast<std::size_t>(n) * sizeof(float));
  }
  return t;
}

Tensor Tensor::from_vector(const std::vector<float>& data, Shape shape,
                           gpusim::Device& device, bool requires_grad) {
  return from_span(data.data(), static_cast<Index>(data.size()),
                   std::move(shape), device, requires_grad);
}

Tensor Tensor::scalar(float value, gpusim::Device& device) {
  return full({1}, value, device);
}

const Shape& Tensor::shape() const {
  MENOS_CHECK_MSG(defined(), "shape() on undefined tensor");
  return impl_->shape;
}

Index Tensor::dim(int i) const {
  const Shape& s = shape();
  MENOS_CHECK_MSG(i >= 0 && i < static_cast<int>(s.size()),
                  "dim index " << i << " out of range for "
                               << shape_to_string(s));
  return s[static_cast<std::size_t>(i)];
}

Index Tensor::numel() const { return numel_of(shape()); }

std::size_t Tensor::bytes() const {
  return static_cast<std::size_t>(numel()) * sizeof(float);
}

float* Tensor::data() {
  MENOS_CHECK_MSG(defined(), "data() on undefined tensor");
  return impl_->storage->data();
}

const float* Tensor::data() const {
  MENOS_CHECK_MSG(defined(), "data() on undefined tensor");
  return impl_->storage->data();
}

gpusim::Device& Tensor::device() const {
  MENOS_CHECK_MSG(defined(), "device() on undefined tensor");
  return impl_->storage->device();
}

float Tensor::item() const {
  MENOS_CHECK_MSG(numel() == 1,
                  "item() requires a single-element tensor, got "
                      << shape_to_string(shape()));
  return data()[0];
}

std::vector<float> Tensor::to_vector() const {
  const float* p = data();
  return std::vector<float>(p, p + numel());
}

bool Tensor::requires_grad() const {
  return defined() && impl_->requires_grad;
}

void Tensor::set_requires_grad(bool value) {
  MENOS_CHECK_MSG(defined(), "set_requires_grad() on undefined tensor");
  MENOS_CHECK_MSG(!(value && impl_->grad_fn != nullptr),
                  "cannot mark a non-leaf tensor as requiring grad");
  impl_->requires_grad = value;
}

Tensor Tensor::grad() const {
  MENOS_CHECK_MSG(defined(), "grad() on undefined tensor");
  return Tensor(impl_->grad);
}

void Tensor::zero_grad() {
  MENOS_CHECK_MSG(defined(), "zero_grad() on undefined tensor");
  impl_->grad.reset();
}

Tensor Tensor::detach() const {
  MENOS_CHECK_MSG(defined(), "detach() on undefined tensor");
  return Tensor(std::make_shared<TensorImpl>(impl_->storage, impl_->shape,
                                             /*requires_grad=*/false));
}

Tensor Tensor::clone() const {
  MENOS_CHECK_MSG(defined(), "clone() on undefined tensor");
  Tensor t = empty(impl_->shape, device());
  std::memcpy(t.data(), data(), bytes());
  return t;
}

Tensor Tensor::to(gpusim::Device& target) const {
  MENOS_CHECK_MSG(defined(), "to() on undefined tensor");
  Tensor t = empty(impl_->shape, target);
  std::memcpy(t.data(), data(), bytes());
  return t;
}

void Tensor::migrate(gpusim::Device& target) {
  MENOS_CHECK_MSG(defined(), "migrate() on undefined tensor");
  MENOS_CHECK_MSG(impl_->grad_fn == nullptr,
                  "migrate() on a tensor attached to the autograd tape");
  if (&device() == &target) return;
  auto moved = std::make_shared<Storage>(target, impl_->storage->numel());
  std::memcpy(moved->data(), impl_->storage->data(), bytes());
  impl_->storage = std::move(moved);
}

void Tensor::copy_from(const Tensor& src) {
  MENOS_CHECK_MSG(defined() && src.defined(), "copy_from with undefined tensor");
  MENOS_CHECK_MSG(numel() == src.numel(),
                  "copy_from numel mismatch: " << numel() << " vs "
                                               << src.numel());
  std::memcpy(data(), src.data(), bytes());
}

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

bool grad_enabled() noexcept { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

}  // namespace menos::tensor
