"""End-to-end benchmark of the planner/scheduler stack (see DESIGN.md)."""
