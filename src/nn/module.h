#ifndef DCMT_NN_MODULE_H_
#define DCMT_NN_MODULE_H_

#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace dcmt {
namespace nn {

/// Base class for anything that owns trainable parameters. Parameters are
/// registered at construction time; optimizers iterate `parameters()`.
///
/// Ownership model: parameters are Tensors (shared handles), so a Module and
/// an optimizer referring to the same parameter see the same storage.
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and registered children.
  const std::vector<Tensor>& parameters() const { return parameters_; }

  /// Total number of trainable scalars.
  std::int64_t ParameterCount() const;

  /// Zeroes every parameter gradient.
  void ZeroGrad();

 protected:
  Module() = default;

  /// Registers a leaf parameter under `name` (names aid debugging and tests).
  Tensor RegisterParameter(std::string name, Tensor t);

  /// Adopts all parameters of a child module (child must outlive nothing —
  /// the tensors are shared handles, so lifetime is independent).
  void RegisterChild(const Module& child);

 private:
  std::vector<Tensor> parameters_;
};

}  // namespace nn
}  // namespace dcmt

#endif  // DCMT_NN_MODULE_H_
