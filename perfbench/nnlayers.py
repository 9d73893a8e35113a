"""Per-layer ``repro.nn`` self time from ``repro.obs.profile.Profiler``.

The profiler times every leaf module.  Leaves are grouped into the
network's conv blocks so the metric names stay fixed: ``G.enc0`` ..
``G.enc5`` and ``G.dec0`` .. ``G.dec5`` are the U-Net blocks (conv plus
its norm, activation and dropout), ``G.concat`` the skip concatenations,
and ``D.b0`` .. ``D.b4`` the PatchGAN convs, each with the leaves that
follow it.  Leaves are self time by definition: they have no children.
"""

from __future__ import annotations

GENERATOR_GROUPS = tuple([f"G.enc{i}" for i in range(6)]
                         + [f"G.dec{i}" for i in range(6)] + ["G.concat"])
DISCRIMINATOR_GROUPS = tuple(f"D.b{i}" for i in range(5))
GROUPS = GENERATOR_GROUPS + DISCRIMINATOR_GROUPS

#: Passes a training step runs; the eval passes are what a forecast runs.
TRAIN_PASSES = ("forward", "backward")
EVAL_PASSES = ("forward_eval", "forward_eval_folded")


def attach(profiler, model, discriminator: bool = False) -> dict:
    """Attach ``profiler`` to the generator (and discriminator).

    Returns the leaf path -> group name map for :func:`group_seconds`.
    """
    groups = {}
    roots = [("G.", model.generator)]
    if discriminator:
        roots.append(("D.", model.discriminator))
    for prefix, root in roots:
        profiler.attach(root, prefix)
        conv = -1
        for path, leaf in root.named_modules(prefix):
            if any(True for _ in leaf.children()):
                continue
            parts = path.split(".")
            if prefix == "G.":
                if parts[1] == "_concats":
                    groups[path] = "G.concat"
                else:
                    kind = "enc" if parts[1] == "enc_blocks" else "dec"
                    groups[path] = f"G.{kind}{parts[2]}"
            else:
                if getattr(type(leaf), "GEMM_COUNTS", None):
                    conv += 1
                groups[path] = f"D.b{max(conv, 0)}"
    return groups


def group_seconds(snapshot: dict, groups: dict, passes) -> dict[str, float]:
    """Seconds per group over the given passes, every group present."""
    seconds = dict.fromkeys(GROUPS, 0.0)
    for path, methods in snapshot["layers"].items():
        group = groups[path]
        for method, stat in methods.items():
            if method in passes:
                seconds[group] += stat["ms"] / 1e3
    return seconds
