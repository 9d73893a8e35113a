"""``repro serve`` with ``repro.obs.profile.Profiler`` on every generator.

Used by the traced ``serve`` run only; the untraced run starts
``python -m repro serve`` itself.  Usage::

    python3 perfbench/serve_profiled.py --profile-out FILE <repro serve args>

On shutdown (SIGINT) the profiler snapshot and the leaf-to-group map are
written to ``FILE`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from nnlayers import attach  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main
    from repro.obs.profile import Profiler
    from repro.serve.registry import ModelRegistry

    if len(argv) < 2 or argv[0] != "--profile-out":
        raise SystemExit(__doc__)
    out = Path(argv[1])
    profiler = Profiler()
    groups = {}
    load = ModelRegistry.from_directory.__func__

    def from_directory(cls, *args, **kwargs):
        registry = load(cls, *args, **kwargs)
        for model_id in registry.model_ids:
            groups.update(attach(profiler, registry.get(model_id)))
        return registry

    ModelRegistry.from_directory = classmethod(from_directory)
    code = cli_main(["serve", *argv[2:]])
    out.write_text(json.dumps({"snapshot": profiler.snapshot(),
                               "groups": groups}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
