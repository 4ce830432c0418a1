"""Out-of-process benchmark for the consolidation planner (see NOTES.md)."""
