"""Shared-resource primitives built on the event kernel.

These mirror the classic DES resource types:

* :class:`Resource` — a fixed number of usage slots with a FIFO wait queue.
* :class:`Container` — a continuous quantity with put/get amounts.
* :class:`Store` — a FIFO buffer of discrete items (optionally bounded).
* :class:`FilterStore` — a store whose consumers select items by predicate.

Network code uses :class:`Store` heavily (interface queues, MAC hand-off).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment

#: Audit hook installed by the runtime sanitizer (repro.sanitizer): when
#: set, every constructed resource is reported to it so end-of-trial
#: occupancy checks can find it.  A module-level callable rather than an
#: import keeps the kernel free of upward dependencies; None (the
#: default) costs one ``is not None`` test per construction.
_AUDIT_HOOK: Optional[Callable[[Any], None]] = None


class _BaseRequest(Event):
    """An event granted when the resource can serve the request.

    Supports use as a context manager so that ``with resource.request() as
    req: yield req`` releases automatically.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: Any) -> None:
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "_BaseRequest":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Withdraw the request (release if granted, dequeue otherwise)."""
        raise NotImplementedError


class ResourceRequest(_BaseRequest):
    """Request for one slot of a :class:`Resource`."""

    __slots__ = ()

    def cancel(self) -> None:
        if self.triggered:
            self.resource.release(self)
        else:
            try:
                self.resource._waiting.remove(self)
            except ValueError:
                pass


class Resource:
    """A resource with ``capacity`` usage slots and a FIFO queue."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._users: list[ResourceRequest] = []
        self._waiting: list[ResourceRequest] = []
        if _AUDIT_HOOK is not None:
            _AUDIT_HOOK(self)

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> ResourceRequest:
        """Request a slot; the returned event fires when granted."""
        req = ResourceRequest(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: ResourceRequest) -> None:
        """Release a previously granted slot."""
        try:
            self._users.remove(request)
        except ValueError:
            return
        if self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.pop(0)
            self._users.append(nxt)
            nxt.succeed()


class Container:
    """A continuous quantity with bounded level."""

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._putters: list[tuple[Event, float]] = []
        self._getters: list[tuple[Event, float]] = []
        if _AUDIT_HOOK is not None:
            _AUDIT_HOOK(self)

    @property
    def level(self) -> float:
        """Current amount stored."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; fires when it fits under ``capacity``."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = Event(self.env)
        self._putters.append((event, amount))
        self._trigger()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; fires when at least that much is available."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = Event(self.env)
        self._getters.append((event, amount))
        self._trigger()
        return event

    def _trigger(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.pop(0)
                    self._level += amount
                    event.succeed()
                    progress = True
            if self._getters:
                event, amount = self._getters[0]
                if self._level >= amount:
                    self._getters.pop(0)
                    self._level -= amount
                    event.succeed(amount)
                    progress = True


class StorePut(_BaseRequest):
    """Request to insert an item into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store)
        self.item = item

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.resource._putters.remove(self)
            except ValueError:
                pass


class StoreGet(_BaseRequest):
    """Request to remove an item from a :class:`Store`."""

    __slots__ = ()

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.resource._getters.remove(self)
            except ValueError:
                pass


class Store:
    """A FIFO buffer of discrete items with optional capacity bound."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._putters: list[StorePut] = []
        self._getters: list[StoreGet] = []
        if _AUDIT_HOOK is not None:
            _AUDIT_HOOK(self)

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the returned event fires once stored."""
        event = StorePut(self, item)
        self._putters.append(event)
        self._trigger()
        return event

    def get(self) -> StoreGet:
        """Remove the oldest item; fires with the item as value."""
        event = StoreGet(self)
        self._getters.append(event)
        self._trigger()
        return event

    def _do_put(self, put: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self.items.append(put.item)
            put.succeed()
            return True
        return False

    def _do_get(self, get: StoreGet) -> bool:
        if self.items:
            get.succeed(self.items.pop(0))
            return True
        return False

    def _trigger(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters and self._do_put(self._putters[0]):
                self._putters.pop(0)
                progress = True
            if self._getters and self._do_get(self._getters[0]):
                self._getters.pop(0)
                progress = True


class FilterStoreGet(StoreGet):
    """Get request carrying an item-selection predicate."""

    __slots__ = ("predicate",)

    def __init__(
        self, store: "FilterStore", predicate: Callable[[Any], bool]
    ) -> None:
        self.predicate = predicate
        super().__init__(store)


class FilterStore(Store):
    """A :class:`Store` whose consumers can select items by predicate."""

    def get(
        self, predicate: Optional[Callable[[Any], bool]] = None
    ) -> FilterStoreGet:
        """Remove the oldest item matching ``predicate`` (default: any)."""
        event = FilterStoreGet(self, predicate or (lambda item: True))
        self._getters.append(event)
        self._trigger()
        return event

    def _do_get(self, get: StoreGet) -> bool:
        predicate = getattr(get, "predicate", lambda item: True)
        for index, item in enumerate(self.items):
            if predicate(item):
                del self.items[index]
                get.succeed(item)
                return True
        return False

    def _trigger(self) -> None:
        # Unlike the FIFO store, a blocked head-of-line getter must not block
        # other getters whose predicates match available items.
        progress = True
        while progress:
            progress = False
            if self._putters and self._do_put(self._putters[0]):
                self._putters.pop(0)
                progress = True
            for get in list(self._getters):
                if self._do_get(get):
                    self._getters.remove(get)
                    progress = True
