// Multi-layer perceptron with ReLU hidden activations.
//
// Implements both the Bottom MLP (dense features -> embedding dim) and the
// Top MLP (interacted features -> CTR logit) of DLRM (paper Fig. 2). The
// backward pass applies plain SGD inline, matching the fused-optimizer
// convention used across EL-Rec.
#pragma once

#include <vector>

#include "embed/embedding_table.hpp"
#include "tensor/matrix.hpp"
#include "tensor/optimizer.hpp"

namespace elrec {

class Mlp {
 public:
  /// layer_sizes = {in, h1, ..., out}. Hidden layers use ReLU; the output
  /// layer is linear (the caller applies sigmoid/loss).
  Mlp(std::vector<index_t> layer_sizes, Prng& rng);

  /// Switches the update rule (default plain SGD); momentum and Adagrad are
  /// supported for these dense layers.
  void set_optimizer(OptimizerConfig config);

  index_t input_dim() const { return layer_sizes_.front(); }
  index_t output_dim() const { return layer_sizes_.back(); }
  int num_layers() const { return static_cast<int>(weights_.size()); }

  /// Forward for a batch: in is (B x input_dim); out resized to
  /// (B x output_dim). Activations are cached for backward.
  void forward(const Matrix& in, Matrix& out);

  /// Inference-only forward: identical arithmetic (and bitwise-identical
  /// output) to forward(), but nothing is cached — the two ping-pong
  /// activation buffers are caller-owned, so concurrent readers each pass
  /// their own pair and the weights stay strictly read-only.
  void forward_frozen(const Matrix& in, Matrix& out, Matrix& scratch_a,
                      Matrix& scratch_b) const;

  /// Backward for the cached forward: grad_out is (B x output_dim);
  /// grad_in resized to (B x input_dim). Parameters are updated with SGD(lr).
  void backward_and_update(const Matrix& grad_out, Matrix& grad_in, float lr);

  /// As above, for a caller that does not need the gradient to the input
  /// (the bottom MLP, whose input is the raw dense features): the first
  /// layer's input gradient is never computed. Same parameter updates.
  void backward_and_update(const Matrix& grad_out, float lr);

  std::size_t parameter_count() const;

  /// Visits every weight matrix and bias vector (deterministic order).
  void visit_parameters(const ParameterVisitor& visit) {
    for (std::size_t l = 0; l < weights_.size(); ++l) {
      visit(weights_[l].data(), static_cast<std::size_t>(weights_[l].size()));
      visit(biases_[l].data(), biases_[l].size());
    }
  }

  Matrix& weight(int layer) { return weights_[static_cast<std::size_t>(layer)]; }
  std::vector<float>& bias(int layer) {
    return biases_[static_cast<std::size_t>(layer)];
  }

 private:
  // z = x * W_l + b_l, through the ReLU for hidden layers. The one forward
  // arithmetic of forward() and forward_frozen().
  void forward_layer(int l, const Matrix& x, Matrix& z) const;
  void backward(const Matrix& grad_out, Matrix* grad_in, float lr);
  void update_weights(int l, const Matrix& x, const Matrix& grad, float lr);
  // Updates layer l's bias from its output gradient. For a hidden layer
  // (kRelu) the gradient is first masked in place by the ReLU of the
  // layer's cached activations: relu_backward fused with the bias sum.
  template <bool kRelu, typename Grad>
  void update_bias(int l, Grad& grad, float lr);

  std::vector<index_t> layer_sizes_;
  std::vector<Matrix> weights_;             // layer l: (in_l x out_l)
  std::vector<std::vector<float>> biases_;  // layer l: out_l
  std::vector<OptimizerState> weight_opt_;
  std::vector<OptimizerState> bias_opt_;
  // Caches of the last forward: input_ is a copy of the MLP input (the
  // input of layer 0); preacts_[l] is hidden layer l's activated output,
  // which is also layer l+1's input. relu_backward's >0 mask is the same
  // on pre- and post-activation values, so one buffer serves both.
  Matrix input_;
  std::vector<Matrix> preacts_;
  index_t cached_batch_ = 0;
  // Backward scratch, kept across steps: W_l^T packed for the dX product,
  // two ping-pong hidden gradients, and the stateful optimizers' explicit
  // gradients.
  Matrix wt_;
  Matrix grad_bufs_[2];
  Matrix grad_w_scratch_;
  std::vector<float> grad_b_scratch_;
};

}  // namespace elrec
