"""Workflow graph: tasks, ports, and dataset-labelled links.

Shared by the Wilkins runtime (built from YAML), the Henson scheduler
(built from ``.hwl`` scripts), and the examples.  A node is a
:class:`TaskSpec`; an edge is a :class:`DataLink` naming the dataset that
flows producer → consumer and the transport used (``file`` or ``memory``).

``networkx`` is imported by the :class:`WorkflowGraph` methods that use
it, so importing :mod:`repro.workflows` (as the reporting layer does)
does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import WorkflowError


@dataclass
class TaskSpec:
    """One workflow task: a callable (or executable name) plus resources."""

    name: str
    func: Callable | str | None = None
    nprocs: int = 1
    args: tuple = ()
    annotations: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise WorkflowError(f"task {self.name!r}: nprocs must be positive")


@dataclass(frozen=True)
class DataLink:
    """A dataset flowing between two tasks."""

    producer: str
    consumer: str
    dataset: str
    filename: str | None = None
    transport: str = "file"  # file | memory

    def __post_init__(self) -> None:
        if self.transport not in ("file", "memory"):
            raise WorkflowError(
                f"link {self.producer}->{self.consumer}: "
                f"unknown transport {self.transport!r}"
            )


class WorkflowGraph:
    """A directed graph of tasks with dataset-labelled edges."""

    def __init__(self) -> None:
        import networkx as nx

        self._g = nx.MultiDiGraph()
        self._tasks: dict[str, TaskSpec] = {}
        self._links: list[DataLink] = []

    # -- construction -------------------------------------------------------

    def add_task(self, task: TaskSpec) -> TaskSpec:
        if task.name in self._tasks:
            raise WorkflowError(f"duplicate task name: {task.name!r}")
        self._tasks[task.name] = task
        self._g.add_node(task.name)
        return task

    def add_link(self, link: DataLink) -> DataLink:
        for end in (link.producer, link.consumer):
            if end not in self._tasks:
                raise WorkflowError(
                    f"link references unknown task {end!r} "
                    f"(have {sorted(self._tasks)})"
                )
        self._links.append(link)
        self._g.add_edge(link.producer, link.consumer, dataset=link.dataset)
        return link

    # -- queries -------------------------------------------------------------

    @property
    def tasks(self) -> list[TaskSpec]:
        return list(self._tasks.values())

    @property
    def links(self) -> list[DataLink]:
        return list(self._links)

    def task(self, name: str) -> TaskSpec:
        try:
            return self._tasks[name]
        except KeyError:
            raise WorkflowError(f"no such task: {name!r}") from None

    def producers_of(self, consumer: str) -> list[DataLink]:
        return [link for link in self._links if link.consumer == consumer]

    def consumers_of(self, producer: str) -> list[DataLink]:
        return [link for link in self._links if link.producer == producer]

    def sources(self) -> list[str]:
        """Tasks with no incoming links (pure producers)."""
        return sorted(n for n in self._g.nodes if self._g.in_degree(n) == 0)

    def sinks(self) -> list[str]:
        """Tasks with no outgoing links (pure consumers)."""
        return sorted(n for n in self._g.nodes if self._g.out_degree(n) == 0)

    def is_dag(self) -> bool:
        import networkx as nx

        return nx.is_directed_acyclic_graph(self._g)

    def topological_order(self) -> list[str]:
        if not self.is_dag():
            raise WorkflowError("workflow graph has cycles; no topological order")
        import networkx as nx

        # lexicographic tie-break keeps ordering deterministic across runs
        return list(nx.lexicographical_topological_sort(self._g))

    def total_procs(self) -> int:
        return sum(t.nprocs for t in self._tasks.values())

    def validate(self) -> None:
        """Structural checks: nonempty, connected, consistent datasets."""
        if not self._tasks:
            raise WorkflowError("workflow has no tasks")
        if len(self._tasks) > 1:
            import networkx as nx

            undirected = self._g.to_undirected(as_view=True)
            if not nx.is_connected(undirected):
                raise WorkflowError("workflow graph is not connected")
        seen: set[tuple[str, str, str]] = set()
        for link in self._links:
            key = (link.producer, link.consumer, link.dataset)
            if key in seen:
                raise WorkflowError(
                    f"duplicate link {link.producer}->{link.consumer} "
                    f"for dataset {link.dataset!r}"
                )
            seen.add(key)

    def datasets(self) -> list[str]:
        return sorted({link.dataset for link in self._links})

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks


def linear_pipeline(names: Iterable[str], dataset: str = "data") -> WorkflowGraph:
    """Convenience: build a linear producer→...→consumer pipeline."""
    graph = WorkflowGraph()
    names = list(names)
    for name in names:
        graph.add_task(TaskSpec(name=name))
    for up, down in zip(names, names[1:]):
        graph.add_link(DataLink(producer=up, consumer=down, dataset=dataset))
    return graph
