"""LLM substrate: chat types, model registry, and the offline simulator.

The harness talks to models through the :class:`~repro.llm.api.ModelAPI`
protocol (``generate(messages, config) -> ModelOutput``), exactly the
surface a real SDK client would implement.  Offline, the registered
providers are four :class:`~repro.llm.simulated.SimulatedModel` instances
(``sim/o3``, ``sim/gemini-2.5-pro``, ``sim/claude-sonnet-4``,
``sim/llama-3.3-70b``) whose behaviour is produced by applying
knowledge-profile-driven corruption operators to reference artifacts,
calibrated against the paper's published scores (see DESIGN.md §2).

Before a sweep executes, the runtime passes its pending requests to
:func:`~repro.llm.simulated.generate_ahead`, which computes the
simulated models' completions on every CPU the process may use; the
outputs are the same as without it.

To evaluate a real endpoint instead, implement ``ModelAPI`` over your SDK
and register it with :func:`~repro.llm.api.register_model`.
"""

from repro.llm.api import Model, ModelAPI, get_model, list_models, register_model
from repro.llm.intent import Intent, analyze_prompt
from repro.llm.simulated import SimulatedModel, generate_ahead
from repro.llm.types import ChatMessage, GenerateConfig, ModelOutput, ModelUsage

__all__ = [
    "ChatMessage",
    "GenerateConfig",
    "ModelOutput",
    "ModelUsage",
    "ModelAPI",
    "Model",
    "get_model",
    "register_model",
    "list_models",
    "SimulatedModel",
    "generate_ahead",
    "Intent",
    "analyze_prompt",
]
