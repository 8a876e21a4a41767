"""Run the shipped ``repro.server`` for the wire workload, in its own process.

The benchmark generates the Paillier key before its clock starts and hands
it to :class:`repro.server.ReproServer` through this launcher, so key
generation stays out of the measured set-up.  Everything else is the
server's default configuration.

Protocol: one JSON object per line on stdin, one JSON reply per line on
stdout.

* ``{"key": {...}}`` (first line): start the server; reply ``{"port": N}``.
* ``{"cmd": "snap"}``: peak RSS, backend bytes, cumulative proxy counters
  and, while tracing, the spans folded since the last snap.
* ``{"cmd": "trace", "on": true|false}``: wrap or unwrap the layers.
* ``{"cmd": "clear_plans"}``: empty the plan cache (first-use rounds).
* ``{"cmd": "stop"}`` or end of input: drain, close, reply, exit.
"""

from __future__ import annotations

import asyncio
import json
import logging
import sys

from common import bootstrap, peak_rss_mb, proxy_counters


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _keypair(spec: dict):
    from repro.crypto.paillier import PaillierKeyPair, PaillierPrivateKey, PaillierPublicKey

    return PaillierKeyPair(
        PaillierPublicKey(spec["n"], spec["g"]),
        PaillierPrivateKey(spec["lam"], spec["mu"], spec["p"], spec["q"]),
    )


async def serve() -> None:
    from repro.server.server import ReproServer, ServerConfig
    from tracer import Tracer

    loop = asyncio.get_running_loop()
    first = json.loads(await loop.run_in_executor(None, sys.stdin.readline))
    server = ReproServer(ServerConfig(proxy_kwargs={"paillier": _keypair(first["key"])}))
    await server.start()
    tracer = Tracer()
    _reply({"port": server.address[1]})
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                break
            command = json.loads(line)
            if command.get("cmd") == "stop":
                break
            if command.get("cmd") == "trace":
                if command["on"]:
                    tracer.install()
                else:
                    tracer.uninstall()
                _reply({"ok": True})
            elif command.get("cmd") == "clear_plans":
                server.proxy.plan_cache.clear()
                _reply({"ok": True})
            elif command.get("cmd") == "snap":
                _reply(
                    {
                        "rss_mb": peak_rss_mb(),
                        "storage_bytes": server.proxy.storage_bytes(),
                        "counters": proxy_counters(server.proxy),
                        "trace": tracer.collect(),
                    }
                )
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        tracer.uninstall()
        await server.aclose()
    _reply({"stopped": True})


def main() -> int:
    bootstrap()
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    asyncio.run(serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
