"""Base classes for the layer-graph API.

Modules implement an explicit ``forward``/``backward`` pair instead of a
general autograd tape: every model in the Adrias reproduction is a static
feed-forward composition (LSTM encoders followed by dense blocks), so a
reverse-ordered backward over cached activations is sufficient, simpler
and considerably faster in pure numpy.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["Module", "Sequential"]


class Module:
    """Base class for all layers and models.

    Subclasses implement :meth:`forward` and :meth:`backward`.  The
    backward contract: given ``d L / d output`` it must (a) accumulate
    ``d L / d param`` into each parameter's ``grad`` buffer and (b)
    return ``d L / d input``.

    ``training`` toggles behaviours such as dropout masks and batch-norm
    statistics; :meth:`train` / :meth:`eval` switch the whole sub-tree.
    """

    def __init__(self) -> None:
        self.training = True
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}

    # -- registration -------------------------------------------------
    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            # Registration on attribute assignment keeps layer definitions terse.
            self.__dict__.setdefault("_parameters", {})[name] = value
            value.name = name
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ----------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        yield from self._parameters.values()
        for child in self._modules.values():
            yield from child.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- mode switching -----------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Switch the whole sub-tree to training (``True``) or inference
        (``False``) mode.  Inference mode additionally licenses layers to
        skip their backward caches entirely (see :attr:`inference`)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @property
    def inference(self) -> bool:
        """True when the module runs without gradient bookkeeping.

        Layers with an inference fast path (e.g. :class:`~repro.nn.LSTM`)
        use this to skip allocating their backward caches; calling
        ``backward`` after an inference-mode forward raises.
        """
        return not self.training

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- computation ---------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> np.ndarray:
        return self.forward(*args, **kwargs)

    # -- state --------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of dotted parameter names to value arrays (copies)."""
        state = {name: param.value.copy() for name, param in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load values saved by :meth:`state_dict`; shapes must match."""
        own = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        for key, value in state.items():
            if key in own:
                target = own[key].value
            elif key in buffers:
                target = buffers[key]
            else:
                raise KeyError(f"unexpected key in state dict: {key!r}")
            if target.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: "
                    f"model {target.shape}, state {value.shape}"
                )
            target[...] = value
        missing = (set(own) | set(buffers)) - set(state)
        if missing:
            raise KeyError(f"missing keys in state dict: {sorted(missing)}")

    # Buffers are non-trainable persistent arrays (e.g. batch-norm running
    # statistics).  Subclasses override ``_buffers`` via attribute dict.
    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in getattr(self, "_buffers", {}).items():
            yield (f"{prefix}{name}", buf)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        self.__dict__.setdefault("_buffers", {})[name] = value
        object.__setattr__(self, name, value)
        return value


class Sequential(Module):
    """Compose modules in order; backward runs them in reverse."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            self.register_module(str(i), layer)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
