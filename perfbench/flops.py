"""Analytic FLOP counts for the ResNet-9 convolutions and the linear head.

A multiply-add counts as two FLOPs. For a convolution with a k x k kernel,
forward = 2 * N * Cout * Cin * k^2 * Ho * Wo. Backward costs one forward for
each of dx and dw that is needed: 2x forward for the trunk and the head,
1x for ``prep`` (its input carries no gradient under either stem, so only dw
is computed), and nothing for the frozen whitening stem.
"""

from __future__ import annotations

from dataclasses import dataclass

# The ROADMAP's analytic count for the default-width forward pass.
DEFAULT_GMAC_PER_IMAGE = 0.38
DEFAULT_GMAC_TOLERANCE = 0.01


@dataclass(frozen=True)
class Layer:
    name: str
    cin: int
    cout: int
    k: int
    hw: int  # output height = width
    bwd_factor: int  # forward-equivalents of backward work: 0, 1 or 2

    @property
    def fwd_flops(self) -> int:
        """FLOPs of one image's forward pass through this layer."""
        return 2 * self.cout * self.cin * self.k * self.k * self.hw * self.hw

    @property
    def bwd_flops(self) -> int:
        return self.bwd_factor * self.fwd_flops


def layer_plan(spec) -> list[Layer]:
    """The convolutions and the head of a ``ModelSpec``, in forward order."""
    w1, w2, w3, w4 = spec.widths
    plan = []
    if spec.stem == "whitened":
        plan.append(Layer("stem", spec.in_channels, 27, 3, 32, 0))
        plan.append(Layer("prep", 27, w1, 1, 32, 1))
    else:
        plan.append(Layer("prep", spec.in_channels, w1, 3, 32, 1))
    plan += [
        Layer("stage1", w1, w2, 3, 32, 2),
        Layer("res1.a", w2, w2, 3, 16, 2),
        Layer("res1.b", w2, w2, 3, 16, 2),
        Layer("stage2", w2, w3, 3, 16, 2),
        Layer("stage3", w3, w4, 3, 8, 2),
        Layer("res2.a", w4, w4, 3, 4, 2),
        Layer("res2.b", w4, w4, 3, 4, 2),
        # A linear layer is a 1x1 convolution over a 1x1 map.
        Layer("head", w4, spec.classes, 1, 1, 2),
    ]
    return plan


def forward_flops_per_image(spec) -> int:
    return sum(layer.fwd_flops for layer in layer_plan(spec))


def check_default_gmac() -> float:
    """The default-width forward must come to about 0.38 GMAC per image."""
    from minitrain.models import ModelSpec

    gmac = forward_flops_per_image(ModelSpec(stem="whitened")) / 2e9
    if abs(gmac - DEFAULT_GMAC_PER_IMAGE) > DEFAULT_GMAC_TOLERANCE:
        raise AssertionError(
            f"default-width forward is {gmac:.4f} GMAC per image, "
            f"expected about {DEFAULT_GMAC_PER_IMAGE}"
        )
    return gmac
