"""Minimal actor support: stateful workers with serialised method calls.

The paper's ML listing (Listing 2) drives a ``trainer`` actor: a stateful
remote object whose methods execute one at a time on its home node, with
arguments resolved from the object store like any task.  This module
implements exactly that on top of the task machinery:

    trainer = rt.actor(Trainer, learning_rate=0.1).options(node=n).remote()
    ref = trainer.train.remote(block_ref)       # methods return ObjectRefs
    result = rt.get(ref)

Serialisation is by construction: every method call's task takes the
previous call's completion token as a hidden dependency, so calls run in
submission order and never concurrently -- which makes mutating ``self``
safe and deterministic.
"""

from __future__ import annotations

from typing import Any, Dict, Type

from repro.futures.refs import ObjectRef
from repro.futures.remote import RemoteFunction, _reject_nested_refs
from repro.futures.task import TaskOptions


class ActorMethod:
    """A bound, remotely-invocable method of one actor instance."""

    def __init__(self, handle: "ActorHandle", method_name: str) -> None:
        self._handle = handle
        self._method_name = method_name

    def remote(self, *args: Any) -> ObjectRef:
        """Invoke the method as a task; returns the result ref."""
        return self._handle._invoke(self._method_name, args)

    def __repr__(self) -> str:
        return f"<ActorMethod {self._handle._cls.__name__}.{self._method_name}>"


class ActorHandle:
    """A reference to a living actor instance."""

    def __init__(
        self,
        runtime: Any,
        cls: Type,
        init_args: tuple,
        options: TaskOptions,
    ) -> None:
        self._runtime = runtime
        self._cls = cls
        self._options = options
        self._instance_box: Dict[str, Any] = {}

        cls_name = cls.__name__

        def construct(*args: Any):
            self._instance_box["instance"] = cls(*args)
            return None

        construct.__name__ = f"{cls_name}.__init__"
        ctor = RemoteFunction(runtime, construct, options)
        self._token: ObjectRef = ctor.remote(*init_args)

    def __getattr__(self, name: str) -> ActorMethod:
        if name.startswith("_"):
            raise AttributeError(name)
        if not callable(getattr(self._cls, name, None)):
            raise AttributeError(
                f"{self._cls.__name__} has no method {name!r}"
            )
        return ActorMethod(self, name)

    def _invoke(self, method_name: str, args: tuple) -> ObjectRef:
        _reject_nested_refs(args)
        box = self._instance_box

        def call(_token: Any, *call_args: Any):
            instance = box["instance"]
            return getattr(instance, method_name)(*call_args)

        call.__name__ = f"{self._cls.__name__}.{method_name}"
        task = RemoteFunction(self._runtime, call, self._options)
        # The previous call's token is the first argument: calls serialise.
        ref = task.remote(self._token, *args)
        self._token = ref
        return ref

    def __repr__(self) -> str:
        return f"<ActorHandle {self._cls.__name__} node={self._options.node}>"


class ActorClass:
    """The result of ``rt.actor(Cls)``: configurable, then instantiable."""

    def __init__(self, runtime: Any, cls: Type, options: TaskOptions) -> None:
        self._runtime = runtime
        self._cls = cls
        self._options = options

    def options(self, **overrides: Any) -> "ActorClass":
        """A copy of this actor class with updated task options."""
        import dataclasses

        return ActorClass(
            self._runtime,
            self._cls,
            dataclasses.replace(self._options, **overrides),
        )

    def remote(self, *args: Any) -> ActorHandle:
        """Instantiate the actor (non-blocking)."""
        return ActorHandle(self._runtime, self._cls, args, self._options)

    def __repr__(self) -> str:
        return f"<ActorClass {self._cls.__name__}>"
