"""Figure declarations, the paper's claims, and their report.

Each driver module declares its figure once, as a :class:`Figure`: the
experiment name, the config and its paper-scale preset, the trial
function, the grid and the result class.  ``experiments.run`` builds its
registry from those declarations.  The paper's figures are bar charts and
CDFs; ``experiments.run`` prints them as aligned text tables /
(value, fraction) series, with a PASS/FAIL line per paper claim, so
results live in the terminal and docs/FIGURES.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.engine import ResultSet, TrialFn, format_table, run_sweep


@dataclass(frozen=True)
class Claim:
    """A paper claim: a sentence and a predicate over a result (and ``needs``'s result)."""

    text: str
    holds: Callable[..., bool]
    needs: str = ""


class FigureResult:
    """What every figure's result shares: ``rows()`` rendered under
    ``headers`` and ``title``, the paper's ``claims``, and the
    ``result_set`` the figure was aggregated from."""

    headers: Sequence[str] = ("metric", "value")
    title: str = ""
    claims: Tuple[Claim, ...] = ()
    result_set: Optional[ResultSet] = None

    def rows(self) -> List[Tuple]:
        raise NotImplementedError

    def format_table(self) -> str:
        return format_table(self.headers, self.rows(), title=self.title)


@dataclass(frozen=True)
class Figure:
    """One paper figure or table, declared once.

    ``name`` is the experiment name (an input to every trial's derived
    seed); ``config`` and ``paper_scale`` build the default and the
    paper-scale config; ``grid`` maps a config to the sweep's axes;
    ``result`` builds the figure's result from the run's
    :class:`ResultSet` and the config.
    """

    name: str
    config: Callable[[], Any]
    paper_scale: Callable[[], Any]
    trial: TrialFn
    result: Callable[[ResultSet, Any], FigureResult]
    grid: Callable[[Any], Mapping[str, Sequence[Any]]] = lambda config: {}

    def run(self, config: Any = None, *, jobs: int = 1,
            seeds: Optional[Sequence[int]] = None) -> FigureResult:
        """Run the sweep (one trial per grid point × seed, the config's
        seed by default) and aggregate it; ``jobs`` does not change the result."""
        config = config or self.config()
        rs = run_sweep(self.name, self.trial, grid=self.grid(config),
                       seeds=seeds or (config.seed,), context=config, jobs=jobs)
        result = self.result(rs, config)
        result.result_set = rs
        return result


def format_report(result, others: Optional[Mapping[str, object]] = None) -> str:
    """The table, then a verdict per claim; ``others`` maps names to results."""
    lines = [result.format_table()]
    for claim in result.claims:
        if claim.needs and claim.needs not in (others or {}):
            lines.append(f"n/a   {claim.text} (needs {claim.needs}: run 'all')")
            continue
        extra = (others[claim.needs],) if claim.needs else ()
        lines.append(f"{'PASS' if claim.holds(result, *extra) else 'FAIL'}  {claim.text}")
    return "\n".join(lines)
