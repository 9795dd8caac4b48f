"""CNN inference kernels: VGG-13, VGG-16 and LeNet-5 (paper §5).

The paper accelerates quantized CNN inference: convolutions and
fully-connected layers decompose into elementwise multiply + accumulate
over 8-bit weights/activations with 16-bit accumulation, plus a ReLU per
activation — all SIMDRAM catalog operations.  This module derives each
network's op mix from its layer shapes and provides a functional
convolution that runs on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import lazy
from repro.apps.common import KernelModel, OpInvocation
from repro.core import expr
from repro.core.expr import Expr
from repro.core.framework import Simdram
from repro.errors import OperationError

#: Quantization used by the kernel models (documented substitution:
#: the paper evaluates quantized networks on SIMDRAM).
WEIGHT_BITS = 8
ACC_BITS = 16


@dataclass(frozen=True)
class ConvLayer:
    """One convolution layer (square kernels, same-padding)."""

    in_channels: int
    out_channels: int
    kernel: int
    out_size: int  # output feature map is out_size x out_size

    @property
    def macs(self) -> int:
        return (self.out_channels * self.out_size * self.out_size
                * self.in_channels * self.kernel * self.kernel)

    @property
    def activations(self) -> int:
        return self.out_channels * self.out_size * self.out_size


@dataclass(frozen=True)
class DenseLayer:
    """One fully-connected layer."""

    in_features: int
    out_features: int

    @property
    def macs(self) -> int:
        return self.in_features * self.out_features

    @property
    def activations(self) -> int:
        return self.out_features


def _vgg_conv_stack(blocks: list[tuple[int, int, int]]) -> list[ConvLayer]:
    """Build VGG conv layers from (n_convs, channels, map_size) blocks."""
    layers = []
    in_channels = 3
    for n_convs, channels, size in blocks:
        for _ in range(n_convs):
            layers.append(ConvLayer(in_channels, channels, 3, size))
            in_channels = channels
    return layers


VGG13_LAYERS: list[ConvLayer | DenseLayer] = _vgg_conv_stack([
    (2, 64, 224), (2, 128, 112), (2, 256, 56), (2, 512, 28), (2, 512, 14),
]) + [DenseLayer(512 * 7 * 7, 4096), DenseLayer(4096, 4096),
      DenseLayer(4096, 1000)]

VGG16_LAYERS: list[ConvLayer | DenseLayer] = _vgg_conv_stack([
    (2, 64, 224), (2, 128, 112), (3, 256, 56), (3, 512, 28), (3, 512, 14),
]) + [DenseLayer(512 * 7 * 7, 4096), DenseLayer(4096, 4096),
      DenseLayer(4096, 1000)]

LENET_LAYERS: list[ConvLayer | DenseLayer] = [
    ConvLayer(1, 6, 5, 28),
    ConvLayer(6, 16, 5, 10),
    DenseLayer(16 * 5 * 5, 120),
    DenseLayer(120, 84),
    DenseLayer(84, 10),
]


def cnn_kernel(name: str, layers: list[ConvLayer | DenseLayer],
               batch: int = 1) -> KernelModel:
    """Derive the SIMDRAM op mix of one network inference."""
    macs = sum(layer.macs for layer in layers) * batch
    activations = sum(layer.activations for layer in layers) * batch
    invocations = (
        OpInvocation("mul", WEIGHT_BITS, macs),
        OpInvocation("add", ACC_BITS, macs),
        OpInvocation("relu", ACC_BITS, activations),
    )
    transposed = macs * WEIGHT_BITS  # activations stream in per MAC lane
    return KernelModel(
        name=name,
        description=f"{name} quantized inference (batch={batch})",
        invocations=invocations,
        transposed_bits=transposed,
        host_bytes=activations * 2,
    )


def vgg13_kernel(batch: int = 1) -> KernelModel:
    return cnn_kernel("VGG-13", VGG13_LAYERS, batch)


def vgg16_kernel(batch: int = 1) -> KernelModel:
    return cnn_kernel("VGG-16", VGG16_LAYERS, batch)


def lenet_kernel(batch: int = 1) -> KernelModel:
    return cnn_kernel("LeNet-5", LENET_LAYERS, batch)


# ---------------------------------------------------------------------------
# functional mini-convolution on the simulator
# ---------------------------------------------------------------------------
def conv2d_simdram(sim: Simdram, image: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Valid 2-D convolution executed with SIMDRAM µPrograms.

    Uses the im2col strategy: every output pixel is one SIMD lane; each
    kernel tap contributes one broadcast ``mul`` and one ``add``.
    ``image`` is (H, W) uint8, ``weights`` is (k, k) int8; returns the
    int32 feature map of shape (H-k+1, W-k+1) before activation.
    """
    image = np.asarray(image)
    weights = np.asarray(weights)
    if image.ndim != 2 or weights.ndim != 2:
        raise OperationError("conv2d_simdram expects 2-D image and kernel")
    k = weights.shape[0]
    if weights.shape != (k, k):
        raise OperationError("kernel must be square")
    out_h, out_w = image.shape[0] - k + 1, image.shape[1] - k + 1
    if out_h < 1 or out_w < 1:
        raise OperationError("kernel larger than image")

    acc = sim.array(np.zeros(out_h * out_w, dtype=np.int64), ACC_BITS,
                    signed=True)
    for dy in range(k):
        for dx in range(k):
            patch = image[dy:dy + out_h, dx:dx + out_w].reshape(-1)
            pixels = sim.array(patch.astype(np.int64), ACC_BITS,
                               signed=True)
            tap = sim.array(
                np.full(out_h * out_w, int(weights[dy, dx]),
                        dtype=np.int64), ACC_BITS, signed=True)
            product = sim.run("mul", pixels, tap)
            product.signed = True
            new_acc = sim.run("add", acc, product)
            new_acc.signed = True
            for stale in (pixels, tap, product, acc):
                stale.free()
            acc = new_acc
    result = acc.to_numpy().reshape(out_h, out_w)
    acc.free()
    return result


def madd_expr(weight: int) -> Expr:
    """The fused multiply-accumulate tap: ``x * weight + acc``.

    The tap weight is a compile-time :func:`~repro.core.expr.const`, so
    the multiplier folds into the MIG instead of replaying the full
    generic multiplier µProgram: :func:`~repro.logic.library.multiply`
    emits one adder row per nonzero *signed* digit of the weight, so a
    negative weight costs what its magnitude does (``x * -3`` is
    ``x - 4x``, not fifteen rows of two's-complement ones).
    """
    return expr.add(expr.mul(expr.inp("x"), expr.const(weight)),
                    expr.inp("acc"))


def madd_relu_expr(weight: int) -> Expr:
    """The dot-product finisher: ``relu(x * weight + acc)`` in one
    fused µProgram — the paper's conv+activation pattern with zero
    intermediate materialization."""
    return expr.relu(madd_expr(weight))


def conv2d_relu_simdram_fused(sim: Simdram, image: np.ndarray,
                              weights: np.ndarray) -> np.ndarray:
    """Valid 2-D convolution + ReLU executed as fused SIMDRAM kernels.

    Same im2col strategy as :func:`conv2d_simdram`, but each kernel tap
    is **one** fused multiply-accumulate µProgram (:func:`madd_expr`),
    with ReLU folded into the final tap (:func:`madd_relu_expr`).
    Compared to the unfused pipeline this issues one ``bbop`` per tap
    instead of two (or three with the activation), never announces an
    intermediate vertical object, and the per-tap product never touches
    a named row block.  Kernels are cached by DAG hash, so repeated
    weights compile once.
    """
    image = np.asarray(image)
    weights = np.asarray(weights)
    if image.ndim != 2 or weights.ndim != 2:
        raise OperationError("conv2d expects a 2-D image and kernel")
    k = weights.shape[0]
    if weights.shape != (k, k):
        raise OperationError("kernel must be square")
    out_h, out_w = image.shape[0] - k + 1, image.shape[1] - k + 1
    if out_h < 1 or out_w < 1:
        raise OperationError("kernel larger than image")

    taps = [(dy, dx) for dy in range(k) for dx in range(k)]
    # RowClone the zero accumulator in-DRAM: no host-channel transpose
    # for a constant (sim.array would stream out_h*out_w*ACC_BITS zero
    # bits over the channel).
    acc = sim.fill(0, out_h * out_w, ACC_BITS, signed=True)
    for dy, dx in taps:
        patch = image[dy:dy + out_h, dx:dx + out_w].reshape(-1)
        pixels = sim.array(patch.astype(np.int64), ACC_BITS, signed=True)
        weight = int(weights[dy, dx])
        last = (dy, dx) == taps[-1]
        tap = madd_relu_expr(weight) if last else madd_expr(weight)
        new_acc = sim.run_expr(tap, {"x": pixels, "acc": acc},
                               width=ACC_BITS)
        new_acc.signed = True
        pixels.free()
        acc.free()
        acc = new_acc
    result = acc.to_numpy().reshape(out_h, out_w)
    acc.free()
    return result


def conv2d_relu_cluster(cluster, image: np.ndarray,
                        weights: np.ndarray) -> np.ndarray:
    """Valid 2-D convolution + ReLU on the sharded multi-module runtime.

    The cluster analogue of :func:`conv2d_relu_simdram_fused`: output
    pixels are SIMD lanes *across all modules* (feature maps larger
    than one module's lanes shard transparently), the accumulator and
    per-tap pixel tensors stay device-resident between taps, and working
    sets beyond a module's D-group rows page through the runtime's
    eviction layer instead of failing.  Each tap is the same fused
    multiply-accumulate kernel, compiled once at the cluster level and
    adopted by every module.
    """
    image = np.asarray(image)
    weights = np.asarray(weights)
    if image.ndim != 2 or weights.ndim != 2:
        raise OperationError("conv2d expects a 2-D image and kernel")
    k = weights.shape[0]
    if weights.shape != (k, k):
        raise OperationError("kernel must be square")
    out_h, out_w = image.shape[0] - k + 1, image.shape[1] - k + 1
    if out_h < 1 or out_w < 1:
        raise OperationError("kernel larger than image")

    taps = [(dy, dx) for dy in range(k) for dx in range(k)]
    acc = cluster.tensor(np.zeros(out_h * out_w, dtype=np.int64),
                         ACC_BITS, signed=True)
    for dy, dx in taps:
        patch = image[dy:dy + out_h, dx:dx + out_w].reshape(-1)
        pixels = cluster.tensor(patch.astype(np.int64), ACC_BITS,
                                signed=True)
        last = (dy, dx) == taps[-1]
        weight = int(weights[dy, dx])
        tap = madd_relu_expr(weight) if last else madd_expr(weight)
        new_acc = cluster.run_expr(tap, {"x": pixels, "acc": acc},
                                   width=ACC_BITS)
        pixels.free()
        acc.free()
        acc = new_acc
    result = acc.to_numpy().reshape(out_h, out_w)
    acc.free()
    return result


def conv2d_relu_lazy(device, image: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """Valid 2-D convolution + ReLU via the **lazy tensor frontend**.

    The programmer-transparent spelling of
    :func:`conv2d_relu_simdram_fused`: plain loops and ``x * w + acc``
    arithmetic, zero SIMDRAM-specific calls.  The whole im2col
    dot-product graph is captured lazily; forcing the result lets the
    evaluation engine partition it against the ``bbop`` three-source
    limit (fusing *multiple* taps per µProgram, where the hand-written
    eager pipeline dispatches one kernel per tap), fold each constant
    tap weight into the MIG, and dispatch on ``device`` — a module, a
    cluster (sharding + paging for feature maps beyond one module's
    lanes and rows), or the process default.
    """
    image = np.asarray(image)
    weights = np.asarray(weights)
    if image.ndim != 2 or weights.ndim != 2:
        raise OperationError("conv2d expects a 2-D image and kernel")
    k = weights.shape[0]
    if weights.shape != (k, k):
        raise OperationError("kernel must be square")
    out_h, out_w = image.shape[0] - k + 1, image.shape[1] - k + 1
    if out_h < 1 or out_w < 1:
        raise OperationError("kernel larger than image")

    acc = None
    for dy in range(k):
        for dx in range(k):
            patch = image[dy:dy + out_h, dx:dx + out_w].reshape(-1)
            pixels = lazy.array(patch.astype(np.int64), width=ACC_BITS,
                                signed=True, device=device)
            term = pixels * int(weights[dy, dx])
            acc = term if acc is None else term + acc
    return acc.relu().numpy().reshape(out_h, out_w)


def relu_simdram(sim: Simdram, values: np.ndarray,
                 width: int = ACC_BITS) -> np.ndarray:
    """Elementwise ReLU executed with the SIMDRAM ``relu`` µProgram."""
    arr = sim.array(np.asarray(values).reshape(-1), width, signed=True)
    out = sim.run("relu", arr)
    result = out.to_numpy().reshape(np.asarray(values).shape)
    arr.free()
    out.free()
    return result
