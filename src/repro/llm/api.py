"""Model protocols (sync, async, batched) and the provider registry.

``get_model("sim/o3")`` returns a :class:`Model` wrapper around whichever
provider is registered under that name.  The four simulated paper models
self-register on import of :mod:`repro.llm.profiles`; a user evaluating a
real endpoint registers their own provider factory under a new name and
everything downstream (solvers, scorers, benches) works unchanged.

Beyond the required sync :meth:`ModelAPI.generate`, providers may opt
into two richer call surfaces the runtime exploits:

* **async** — implement :class:`AsyncModelAPI` (an ``agenerate``
  coroutine) and :class:`~repro.runtime.executors.AsyncExecutor` drives
  the provider on its event loop directly; any plain sync provider is
  adapted automatically by :func:`as_async`, which offloads each call to
  a worker thread so the loop keeps multiplexing;
* **batched** — implement ``generate_batch(requests)`` (one provider
  round-trip for a whole group of prompts) and
  :class:`~repro.runtime.batching.BatchingExecutor` issues one call per
  model instead of one per unit.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.errors import ModelError, UnknownModelError
from repro.llm.types import BatchRequest, ChatMessage, GenerateConfig, ModelOutput


@runtime_checkable
class ModelAPI(Protocol):
    """What a provider must implement.

    Providers *may* additionally expose
    ``generate_batch(requests: Sequence[BatchRequest]) -> list[ModelOutput]``
    returning one output per request, in request order; the batching
    runtime uses it when present and falls back to per-request
    ``generate`` otherwise.
    """

    name: str

    def generate(
        self, messages: Sequence[ChatMessage], config: GenerateConfig
    ) -> ModelOutput:  # pragma: no cover - protocol
        ...


@runtime_checkable
class AsyncModelAPI(Protocol):
    """An async-native provider: ``agenerate`` runs on the event loop."""

    name: str

    async def agenerate(
        self, messages: Sequence[ChatMessage], config: GenerateConfig
    ) -> ModelOutput:  # pragma: no cover - protocol
        ...


class AsyncAdapter:
    """Default :class:`AsyncModelAPI` over any sync provider.

    Each ``agenerate`` call offloads the provider's blocking ``generate``
    to a worker thread, so an event loop can keep many calls in flight
    even against a purely synchronous SDK.  Threads come from
    ``executor`` when given (lets a caller reuse one pool across many
    event loops — :class:`~repro.runtime.executors.AsyncExecutor` does),
    else from the loop's default executor (``asyncio.to_thread``).
    """

    def __init__(
        self,
        provider: ModelAPI,
        executor: "concurrent.futures.Executor | None" = None,
    ) -> None:
        self._provider = provider
        self._executor = executor
        self.name = provider.name

    async def agenerate(
        self, messages: Sequence[ChatMessage], config: GenerateConfig
    ) -> ModelOutput:
        import asyncio  # only async callers load it

        if self._executor is None:
            return await asyncio.to_thread(
                self._provider.generate, messages, config
            )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._provider.generate, messages, config
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AsyncAdapter({self._provider!r})"


def as_async(
    provider: ModelAPI | AsyncModelAPI,
    executor: "concurrent.futures.Executor | None" = None,
) -> AsyncModelAPI:
    """The provider itself if async-native, else an :class:`AsyncAdapter`."""
    if callable(getattr(provider, "agenerate", None)):
        return provider
    return AsyncAdapter(provider, executor)


class Model:
    """Thin convenience wrapper over a provider."""

    def __init__(self, provider: ModelAPI) -> None:
        self._provider = provider

    @property
    def name(self) -> str:
        return self._provider.name

    def generate(
        self,
        input: str | Sequence[ChatMessage],
        config: GenerateConfig | None = None,
    ) -> ModelOutput:
        """Generate from a plain prompt string or a full message list."""
        if isinstance(input, str):
            messages: Sequence[ChatMessage] = [ChatMessage.user(input)]
        else:
            messages = list(input)
        return self._provider.generate(messages, config or GenerateConfig())

    def generate_batch(
        self,
        inputs: Sequence[tuple[str | Sequence[ChatMessage], GenerateConfig | None]],
    ) -> list[ModelOutput]:
        """Batched generation: one provider round-trip when supported.

        ``inputs`` is a sequence of ``(input, config)`` pairs accepting
        the same input forms as :meth:`generate`.  Providers exposing
        ``generate_batch`` get the whole group in one call; others are
        driven per-request, so callers never need to feature-test.
        """
        requests: list[BatchRequest] = []
        for input, config in inputs:
            if isinstance(input, str):
                messages: Sequence[ChatMessage] = [ChatMessage.user(input)]
            else:
                messages = list(input)
            requests.append((messages, config or GenerateConfig()))
        batch = getattr(self._provider, "generate_batch", None)
        if callable(batch):
            outputs = list(batch(requests))
            if len(outputs) != len(requests):
                raise ModelError(
                    f"{self.name}: generate_batch returned {len(outputs)} "
                    f"outputs for {len(requests)} requests"
                )
            return outputs
        return [self._provider.generate(m, c) for m, c in requests]

    @property
    def provider(self) -> ModelAPI:
        return self._provider

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Model({self.name!r})"


_registry: dict[str, Callable[[], ModelAPI]] = {}
_instances: dict[str, ModelAPI] = {}
_lock = threading.Lock()


def register_model(name: str, factory: Callable[[], ModelAPI]) -> None:
    """Register a provider factory under ``name`` (idempotent overwrite)."""
    with _lock:
        _registry[name] = factory
        _instances.pop(name, None)


def register_instance(provider: ModelAPI) -> None:
    """Register a live provider under its own name (idempotent for the
    same instance).

    Lets a caller hand an unregistered provider instance to the harness
    (``evaluate(task, Model(MyProvider()))``): the runtime resolves
    models by name, so the instance must be reachable through the
    registry.  A name already bound to a *different* provider raises
    :class:`~repro.errors.ModelError` instead of silently rerouting
    every existing reference to that name.
    """
    _ensure_builtin_models()
    with _lock:
        if provider.name in _registry:
            current = _instances.get(provider.name)
            if current is None:
                current = _instances[provider.name] = _registry[provider.name]()
            if current is not provider:
                raise ModelError(
                    f"model name {provider.name!r} is already registered to a "
                    "different provider; pick a unique name or use "
                    "register_model() to overwrite explicitly"
                )
            return
        _registry[provider.name] = lambda: provider
        _instances[provider.name] = provider


def get_model(name: str) -> Model:
    """Instantiate (once) and return the model registered under ``name``."""
    _ensure_builtin_models()
    with _lock:
        if name not in _registry:
            raise UnknownModelError(
                f"unknown model {name!r}; registered: {sorted(_registry)}"
            )
        if name not in _instances:
            _instances[name] = _registry[name]()
        return Model(_instances[name])


def list_models() -> list[str]:
    """Names of all registered models."""
    _ensure_builtin_models()
    with _lock:
        return sorted(_registry)


def _ensure_builtin_models() -> None:
    # profile import self-registers the four simulated paper models
    import repro.llm.profiles  # noqa: F401
