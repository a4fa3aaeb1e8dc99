"""The benchmark's traced runs wrap thermocc functions where their callers
look them up (perfbench/spans.py). A hook whose every lookup site is gone
reports no metrics, so a traced run would silently lose a layer; this
checks that each hook keeps at least one site that resolves.
"""

import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("prefix, sites", [(p, s) for p, s, _ in spans.HOOKS],
                         ids=[p for p, _, _ in spans.HOOKS])
def test_every_hook_keeps_a_lookup_site(prefix, sites):
    resolved = [site for site in sites
                if spans._resolve(site)[0] is not None]
    assert resolved, f"no lookup site of {prefix} resolves: {sites}"
