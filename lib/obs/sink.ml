type t = { emit : Event.t -> unit; flush : unit -> unit }

let null = { emit = ignore; flush = ignore }

let jsonl oc =
  {
    emit =
      (fun e ->
        output_string oc (Event.to_json e);
        output_char oc '\n');
    flush = (fun () -> flush oc);
  }

let memory () =
  let events = ref [] in
  ( { emit = (fun e -> events := e :: !events); flush = ignore },
    fun () -> List.rev !events )
