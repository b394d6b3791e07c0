"""Tenant/channel routing table: who hears whom.

The routing key is the pair ``(tenant_id, channel)`` — two tenants
using the same channel name are in *different* rooms, which is the
isolation property the whole TenantKeyring hierarchy exists to give:
cross-tenant delivery is impossible by construction because the lookup
key embeds the authenticated tenant identity, not anything the client
typed.
"""

from __future__ import annotations

__all__ = ["ChannelRouter"]


class ChannelRouter:
    """Maps ``(tenant, channel)`` groups to member link ids.

    Pure bookkeeping: membership is driven by the
    :class:`~repro.relay.RelayCore` (join on the first payload, leave
    on retirement), and :meth:`peers` answers the only routing question
    the hot path asks.  Peer lists come back sorted so fan-out order —
    and therefore every adapter's write order — is deterministic.
    """

    def __init__(self):
        self._groups: dict = {}
        self._membership: dict = {}

    def join(self, link_id: int, tenant_id: bytes, channel: bytes) -> int:
        """Add a link to its tenant's channel; returns the group size."""
        if link_id in self._membership:
            raise ValueError(f"link {link_id} already joined a channel")
        key = (bytes(tenant_id), bytes(channel))
        group = self._groups.setdefault(key, set())
        group.add(link_id)
        self._membership[link_id] = key
        return len(group)

    def leave(self, link_id: int) -> "tuple | None":
        """Remove a link; returns its ``(tenant, channel)`` key or
        ``None`` if it never joined.  Empty groups are deleted."""
        key = self._membership.pop(link_id, None)
        if key is None:
            return None
        group = self._groups.get(key)
        if group is not None:
            group.discard(link_id)
            if not group:
                del self._groups[key]
        return key

    def peers(self, link_id: int) -> list:
        """Every *other* member of the link's group, sorted by id."""
        key = self._membership.get(link_id)
        if key is None:
            return []
        return sorted(m for m in self._groups[key] if m != link_id)

    def group_size(self, tenant_id: bytes, channel: bytes) -> int:
        """Current membership of one ``(tenant, channel)`` group."""
        return len(self._groups.get((bytes(tenant_id), bytes(channel)), ()))

    def __len__(self) -> int:
        return len(self._membership)

    def snapshot(self) -> dict:
        """``{(tenant, channel): sorted member ids}`` — for stats/tests."""
        return {key: sorted(group) for key, group in self._groups.items()}
