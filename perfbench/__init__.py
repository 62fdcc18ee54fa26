"""CDC ingest benchmark for nifi_ray; see README.md."""
