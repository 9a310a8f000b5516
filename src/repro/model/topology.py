"""Network topologies: building task sets from physical deployments.

The paper's context is "a distributed system composed of nodes
interconnected by links.  Each node and link provides a set of resources"
(Section 2) — computation runs on node CPUs and communication consumes
link bandwidth, both modeled uniformly as subtasks.

This module provides that deployment layer on top of :mod:`networkx`:

* :class:`NetworkTopology` — nodes (CPU resources) and links (bandwidth
  resources) as an undirected graph;
* :meth:`NetworkTopology.deploy_pipeline` — place a computation pipeline
  onto a sequence of nodes: each computation stage becomes a CPU subtask
  on its node, and each hop between consecutive nodes is routed along the
  shortest path, generating one LINK subtask per traversed link;
* :meth:`NetworkTopology.build_taskset` — collect deployed tasks into a
  :class:`~repro.model.task.TaskSet` over the topology's resources.

The result is a workload in which a single physical link shared by
several flows becomes a contended resource the optimizer must price —
exactly the program-trading bandwidth story of the paper's introduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.model.events import TriggeringEvent
from repro.model.graph import SubtaskGraph
from repro.model.resources import Resource, ResourceKind
from repro.model.task import Subtask, Task, TaskSet
from repro.model.utility import UtilityFunction

__all__ = ["ComputeStage", "NetworkTopology"]


@dataclass(frozen=True)
class ComputeStage:
    """One computation stage of a pipeline: a name, where it runs, and
    its WCET; ``transfer_time`` is the WCET of *each link hop* carrying
    its output to the next stage (message size / link bandwidth)."""

    name: str
    node: str
    exec_time: float
    transfer_time: float = 1.0

    def __post_init__(self) -> None:
        if self.exec_time <= 0.0:
            raise ModelError(
                f"stage {self.name!r}: exec_time must be positive"
            )
        if self.transfer_time <= 0.0:
            raise ModelError(
                f"stage {self.name!r}: transfer_time must be positive"
            )


class NetworkTopology:
    """A physical deployment target: CPU nodes joined by bandwidth links."""

    def __init__(self, cpu_availability: float = 1.0, cpu_lag: float = 1.0,
                 link_availability: float = 1.0, link_lag: float = 0.5) -> None:
        # Imported here so that importing repro.model (and the CLI) does
        # not pay for networkx unless a topology is actually built.
        import networkx as nx

        self.graph = nx.Graph()
        self.cpu_availability = float(cpu_availability)
        self.cpu_lag = float(cpu_lag)
        self.link_availability = float(link_availability)
        self.link_lag = float(link_lag)
        self._tasks: List[Task] = []

    # -- construction ------------------------------------------------------------

    def add_node(self, name: str, availability: Optional[float] = None,
                 lag: Optional[float] = None) -> None:
        """Add a compute node (one CPU resource)."""
        if self.graph.has_node(name):
            raise ModelError(f"node {name!r} already exists")
        self.graph.add_node(
            name,
            availability=availability if availability is not None
            else self.cpu_availability,
            lag=lag if lag is not None else self.cpu_lag,
        )

    def add_link(self, a: str, b: str, availability: Optional[float] = None,
                 lag: Optional[float] = None) -> None:
        """Add a bidirectional link (one bandwidth resource)."""
        for node in (a, b):
            if not self.graph.has_node(node):
                raise ModelError(f"unknown node {node!r}")
        if self.graph.has_edge(a, b):
            raise ModelError(f"link {a!r}–{b!r} already exists")
        self.graph.add_edge(
            a, b,
            availability=availability if availability is not None
            else self.link_availability,
            lag=lag if lag is not None else self.link_lag,
        )

    @classmethod
    def line(cls, nodes: Sequence[str], **kwargs: Any) -> "NetworkTopology":
        """A linear chain of nodes."""
        topo = cls(**kwargs)
        for n in nodes:
            topo.add_node(n)
        for a, b in zip(nodes, nodes[1:]):
            topo.add_link(a, b)
        return topo

    @classmethod
    def star(cls, hub: str, leaves: Sequence[str],
             **kwargs: Any) -> "NetworkTopology":
        """A hub-and-spoke topology."""
        topo = cls(**kwargs)
        topo.add_node(hub)
        for leaf in leaves:
            topo.add_node(leaf)
            topo.add_link(hub, leaf)
        return topo

    # -- resource naming -----------------------------------------------------------

    @staticmethod
    def cpu_resource_name(node: str) -> str:
        return f"cpu:{node}"

    @staticmethod
    def link_resource_name(a: str, b: str) -> str:
        lo, hi = sorted((a, b))
        return f"link:{lo}-{hi}"

    def resources(self) -> List[Resource]:
        """All CPU and link resources of the topology."""
        out = []
        for node, data in self.graph.nodes(data=True):
            out.append(Resource(
                name=self.cpu_resource_name(node),
                kind=ResourceKind.CPU,
                availability=data["availability"],
                lag=data["lag"],
            ))
        for a, b, data in self.graph.edges(data=True):
            out.append(Resource(
                name=self.link_resource_name(a, b),
                kind=ResourceKind.LINK,
                availability=data["availability"],
                lag=data["lag"],
            ))
        return out

    def route(self, src: str, dst: str) -> List[Tuple[str, str]]:
        """Shortest-path route between two nodes, as link endpoints."""
        import networkx as nx

        try:
            path = nx.shortest_path(self.graph, src, dst)
        except nx.NetworkXNoPath as exc:
            raise ModelError(
                f"no route from {src!r} to {dst!r}"
            ) from exc
        except nx.NodeNotFound as exc:
            raise ModelError(str(exc)) from exc
        return list(zip(path, path[1:]))

    # -- deployment -----------------------------------------------------------------

    def deploy_pipeline(
        self,
        name: str,
        stages: Sequence[ComputeStage],
        critical_time: float,
        utility: UtilityFunction,
        trigger: Optional[TriggeringEvent] = None,
        variant: str = "path-weighted",
    ) -> Task:
        """Place a compute pipeline onto the topology.

        Consecutive stages on different nodes are connected by one LINK
        subtask per traversed physical link (shortest-path routing); the
        paper's one-resource-per-subtask rule is preserved by giving each
        communication hop its own subtask.

        The resulting task is remembered and included in
        :meth:`build_taskset`.
        """
        if not stages:
            raise ModelError(f"pipeline {name!r} needs at least one stage")
        for stage in stages:
            if not self.graph.has_node(stage.node):
                raise ModelError(
                    f"pipeline {name!r}: unknown node {stage.node!r}"
                )

        subtasks: List[Subtask] = []
        order: List[str] = []
        used_resources: Dict[str, str] = {}

        def add_subtask(sub_name: str, resource: str,
                        exec_time: float) -> None:
            if resource in used_resources:
                raise ModelError(
                    f"pipeline {name!r}: resource {resource!r} used by both "
                    f"{used_resources[resource]!r} and {sub_name!r} — a task "
                    "may not visit the same resource twice (route the "
                    "pipeline differently or split the task)"
                )
            used_resources[resource] = sub_name
            subtasks.append(Subtask(
                name=sub_name, resource=resource, exec_time=exec_time,
            ))
            order.append(sub_name)

        for i, stage in enumerate(stages):
            add_subtask(
                f"{name}.{stage.name}",
                self.cpu_resource_name(stage.node),
                stage.exec_time,
            )
            if i + 1 < len(stages):
                nxt = stages[i + 1]
                if nxt.node != stage.node:
                    for hop, (a, b) in enumerate(
                            self.route(stage.node, nxt.node)):
                        add_subtask(
                            f"{name}.{stage.name}->{nxt.name}#{hop}",
                            self.link_resource_name(a, b),
                            stage.transfer_time,
                        )

        task = Task(
            name=name,
            subtasks=subtasks,
            graph=SubtaskGraph.chain(order),
            critical_time=critical_time,
            utility=utility,
            variant=variant,
            trigger=trigger,
        )
        self._tasks.append(task)
        return task

    def build_taskset(self) -> TaskSet:
        """All deployed pipelines over the topology's resources."""
        if not self._tasks:
            raise ModelError("no pipelines deployed")
        return TaskSet(self._tasks, self.resources())
