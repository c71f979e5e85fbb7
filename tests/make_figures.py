"""Generate docs/FIGURES.md, the paper-versus-measured record: per figure, the
paper's section and claim, the command, and the ``experiments.run`` table text
(the measured table at the committed seed, and a PASS/FAIL line per claim).
``tests/test_figures.py`` requires the file to match a fresh run byte for byte.
Rewrite it after a deliberate change, saying why::

    PYTHONPATH=src python tests/make_figures.py
"""

from __future__ import annotations

import multiprocessing
import pathlib
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Mapping

from repro.experiments.report import format_report
from repro.experiments.run import EXPERIMENTS

OUT = pathlib.Path(__file__).resolve().parent.parent / "docs" / "FIGURES.md"

#: experiments.run name -> the paper's section and claim, in paper order.
PAPER = {
    "agreement": "§3. When a failure affects a group, every live member hears exactly one "
    "notification in bounded time, under any crashes, partitions or intransitive failures.",
    "svtree": "§4. A 2,000-subscriber SV-tree on 16,000 nodes needs FUSE groups of mean 2.9 "
    "members and at most 13.",
    "ablation-topologies": "§5.1. Liveness over the overlay shares its pings, so load is flat "
    "in group count; direct trees and all-to-all grow with it, all-to-all fastest.",
    "ablation-repair": "§6. FUSE repairs a liveness tree when a delegate fails instead of "
    "signalling the group; without repair, delegate failures are false positives.",
    "fig6": "§7, Fig 6. The simulator tracks a second RPC over a cached connection (median "
    "about 130 ms); a first RPC pays connection setup, about 2x.",
    "fig7": "§7.3, Fig 7. Creation latency grows with group size, since a blocking create "
    "waits for the furthest member; by size 32 the quartiles converge.",
    "fig8": "§7.4, Fig 8. A signalled notification is much faster than creation; the median "
    "rises from size 2 to 8 with the hop through the root; the maximum is 1,165 ms.",
    "fig9": "§7.4, Fig 9. With 10 of 400 nodes disconnected, all 163 live members of the 42 "
    "affected groups are notified in about 0.3-4 minutes, set by the ping and repair timeouts.",
    "steady-state": "§7.5. 400 nodes send 337 msg/s without FUSE groups and 338 msg/s with "
    "400 groups of 10: FUSE adds a 20-byte hash to existing pings, not messages.",
    "fig10": "§7, Fig 10. 238 msg/s stable, 270 under churn (+13%), 523 under churn with 100 "
    "FUSE groups (+94%); no false positives.  Here the churn delta is seed noise: -3.2% to "
    "+5.0% over seeds 1-10, negative on 5.",
    "fig11": "§7, Fig 11. Per-link loss of 0.4%, 0.8% and 1.6% compounds over routes of "
    "median 15 hops into median route loss of 5.8%, 11.4% and 21.5%.",
    "fig12": "§7, Fig 12. No group fails at 0% or 5.8% median route loss (TCP masks the "
    "drops); at 11.4% and 21.5% some do, larger groups more often.",
}

HEADER = """\
# The paper's figures: claims and measured results

Generated by `PYTHONPATH=src python tests/make_figures.py`; do not edit.
Each section runs one figure at its default config and committed seed.
Its table ends with a line per claim the paper makes about the figure:
PASS when the measured result shows it, FAIL when it does not.
"""


def _run(name: str) -> object:
    return EXPERIMENTS[name].run()


def run_all() -> Dict[str, object]:
    """Every figure at its default config, two at a time, fig12 (half the work)
    first.  Each runs its trials serially; the engine's results do not depend on that."""
    assert PAPER.keys() == EXPERIMENTS.keys(), "every figure needs a PAPER entry"
    order = sorted(PAPER, key=lambda name: name != "fig12")
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        return dict(zip(order, pool.map(_run, order)))


def section(name: str, result, results: Mapping[str, object]) -> str:
    return (
        f"## {name}\n\n**Paper.** {PAPER[name]}\n\n"
        f"```sh\nPYTHONPATH=src python -m repro.experiments.run {name}\n```\n\n"
        f"```text\n{format_report(result, results)}\n```\n"
    )


def render(results: Mapping[str, object]) -> str:
    sections = {name: section(name, results[name], results) for name in PAPER}
    verdicts = [
        (name, line) for name, text in sections.items()
        for line in text.splitlines() if line.startswith(("PASS  ", "FAIL  "))
    ]
    failing = [f"- FAIL in {name}: {line[6:]}" for name, line in verdicts if line[:4] == "FAIL"]
    summary = [f"{len(verdicts) - len(failing)} of {len(verdicts)} claims hold."] + failing
    return HEADER + "\n" + "\n".join(summary) + "\n\n" + "\n".join(sections.values())


if __name__ == "__main__":
    OUT.write_text(render(run_all()))
    print(f"wrote {OUT}")
