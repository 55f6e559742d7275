"""Dataflow graphs of RLHF training workflows at model-function-call granularity.

Section 4 of the paper models an RLHF workflow as a dataflow graph whose
nodes are *model function calls* (generation, inference or training on one of
the participating LLMs) and whose edges are data dependencies or parameter
version dependencies.  This module provides the node and graph types; the
concrete PPO / DPO / GRPO / ReMax graphs are built in
:mod:`repro.algorithms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

__all__ = ["FunctionCallType", "ModelFunctionCall", "DataflowGraph"]


class FunctionCallType(str, Enum):
    """The three computational task types of RLHF (Section 2.1)."""

    GENERATE = "generate"
    INFERENCE = "inference"
    TRAIN_STEP = "train_step"


@dataclass(frozen=True)
class ModelFunctionCall:
    """One node of the dataflow graph: a single task on one LLM.

    Attributes
    ----------
    name:
        Unique node identifier, e.g. ``"actor_generate"``.
    model_name:
        The LLM instance this call runs on (``"actor"``, ``"critic"``,
        ``"ref"``, ``"reward"``).  Calls sharing a model name share
        parameters, which induces reallocation edges when their
        parallelization strategies differ.
    call_type:
        Generation, inference or training.
    input_keys / output_keys:
        Named data produced and consumed; a data dependency edge is drawn
        from the producer of a key to every consumer of that key.
    batch_scale:
        Multiplier on the experiment batch size for this call.  GRPO's
        grouped generation uses 8, DPO's paired preference data uses 2.
    gen_len_scale:
        Multiplier on the experiment generation length (e.g. greedy
        baselines that generate the same length use 1.0).
    """

    name: str
    model_name: str
    call_type: FunctionCallType
    input_keys: Tuple[str, ...] = ()
    output_keys: Tuple[str, ...] = ()
    batch_scale: float = 1.0
    gen_len_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("call name must be non-empty")
        if not self.model_name:
            raise ValueError("model_name must be non-empty")
        if self.batch_scale <= 0:
            raise ValueError("batch_scale must be positive")

    @property
    def is_trainable(self) -> bool:
        """Whether this call updates the model's parameters."""
        return self.call_type is FunctionCallType.TRAIN_STEP


@dataclass(frozen=True)
class DataflowGraph:
    """A directed acyclic graph of model function calls for one RLHF iteration.

    Edges are derived from the calls' input/output keys (data dependencies)
    plus explicit extra edges (e.g. parameter version dependencies between
    iterations).  The graph validates itself on construction: keys consumed
    by a call must be produced by exactly one call or listed as an external
    input (e.g. the prompt dataset), and the graph must be acyclic.

    The graph is frozen: the scheduler hands one graph object to every job
    of the same type, so none may change it after construction.
    """

    calls: List[ModelFunctionCall]
    external_inputs: Tuple[str, ...] = ("prompts",)
    extra_edges: List[Tuple[str, str]] = field(default_factory=list)
    name: str = "rlhf"

    def __post_init__(self) -> None:
        names = [c.name for c in self.calls]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate call names in dataflow graph: {names}")
        by_name: Dict[str, ModelFunctionCall] = {c.name: c for c in self.calls}
        producers: Dict[str, str] = {}
        for call in self.calls:
            for key in call.output_keys:
                if key in producers:
                    raise ValueError(
                        f"data key {key!r} produced by both "
                        f"{producers[key]!r} and {call.name!r}"
                    )
                producers[key] = call.name
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_producers", producers)
        object.__setattr__(self, "_edges", self._build_edges())
        object.__setattr__(self, "_order", self._topological_order())

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build_edges(self) -> List[Tuple[str, str]]:
        edges: List[Tuple[str, str]] = []
        for call in self.calls:
            for key in call.input_keys:
                if key in self.external_inputs:
                    continue
                producer = self._producers.get(key)
                if producer is None:
                    raise ValueError(
                        f"call {call.name!r} consumes {key!r}, which no call produces "
                        f"and which is not an external input"
                    )
                if producer != call.name:
                    edges.append((producer, call.name))
        for src, dst in self.extra_edges:
            if src not in self._by_name or dst not in self._by_name:
                raise ValueError(f"extra edge ({src!r}, {dst!r}) references unknown calls")
            edges.append((src, dst))
        # De-duplicate while preserving order.
        seen: set[Tuple[str, str]] = set()
        unique: List[Tuple[str, str]] = []
        for edge in edges:
            if edge not in seen:
                seen.add(edge)
                unique.append(edge)
        return unique

    def _topological_order(self) -> List[str]:
        indegree: Dict[str, int] = {c.name: 0 for c in self.calls}
        for _, dst in self._edges:
            indegree[dst] += 1
        frontier = [name for name, deg in indegree.items() if deg == 0]
        order: List[str] = []
        children = self.children_map()
        while frontier:
            frontier.sort()  # deterministic order
            node = frontier.pop(0)
            order.append(node)
            for child in children.get(node, ()):  # type: ignore[arg-type]
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        if len(order) != len(self.calls):
            raise ValueError("dataflow graph contains a cycle")
        return order

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def edges(self) -> List[Tuple[str, str]]:
        """All (producer, consumer) dependency edges."""
        return list(self._edges)

    @property
    def call_names(self) -> List[str]:
        """Names of all calls in declaration order."""
        return [c.name for c in self.calls]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> ModelFunctionCall:
        """Look up a call by name."""
        return self._by_name[name]

    def children_map(self) -> Dict[str, List[str]]:
        """Mapping from each call to its children."""
        out: Dict[str, List[str]] = {c.name: [] for c in self.calls}
        for src, dst in self._edges:
            out[src].append(dst)
        return out

    def parents_map(self) -> Dict[str, List[str]]:
        """Mapping from each call to its parents."""
        out: Dict[str, List[str]] = {c.name: [] for c in self.calls}
        for src, dst in self._edges:
            out[dst].append(src)
        return out

    def topological_order(self) -> List[str]:
        """Call names in a deterministic topological order."""
        return list(self._order)

    def model_names(self) -> List[str]:
        """Distinct model (LLM) names appearing in the graph."""
        seen: List[str] = []
        for call in self.calls:
            if call.model_name not in seen:
                seen.append(call.model_name)
        return seen

    def calls_of_model(self, model_name: str) -> List[ModelFunctionCall]:
        """Calls running on the given model, in topological order."""
        order = {name: i for i, name in enumerate(self._order)}
        matching = [c for c in self.calls if c.model_name == model_name]
        return sorted(matching, key=lambda c: order[c.name])
